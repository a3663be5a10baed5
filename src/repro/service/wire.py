"""Wire schemas: what crosses the HTTP boundary, validated.

A job submission is JSON with either one spec or a batch::

    {"spec": {...RunSpec.to_dict()...}, "label": "fig3 cell"}
    {"specs": [{...}, {...}], "label": "latency sweep"}

``RunSpec`` is already frozen, hashable and JSON-round-trippable — the
spec *is* the wire format, so the service validates by parsing through
:meth:`RunSpec.from_dict`, hashing the spec, resolving its memory
hierarchy (which builds its machine config) and resolving the backend
name.  A bad body — including config overrides that are unhashable,
name no config field or describe a hierarchy that cannot be built,
keys that name no field of their spec, workload, entry, profile, router
or memory document, scalars or profile fields of the wrong type or out
of synthesis range, and a router corpus other than ``"default"`` — raises
:class:`WireError`, which the server maps to a 400 instead of letting a
malformed job fail asynchronously after it was accepted.  The corpus is
a path the worker would read whole, so a client may not choose it (the
CLI's ``--router-corpus`` reads local files).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.engine.backends import get_backend
from repro.engine.spec import RunSpec
from repro.service.jobs import splice

#: refuse batches beyond this many specs in one job (a grid this large
#: should be split into several jobs so progress/drain stay responsive)
MAX_SPECS_PER_JOB = 4096


class WireError(ValueError):
    """A client-side protocol error; the server answers 400."""


@dataclass
class JobRequest:
    """One validated job submission."""

    specs: list[RunSpec]
    label: str | None = None


def parse_job_request(body: bytes) -> JobRequest:
    """Parse and validate a ``POST /jobs`` body."""
    try:
        doc = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise WireError(f"body is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise WireError("body must be a JSON object")
    if ("spec" in doc) == ("specs" in doc):
        raise WireError('body needs exactly one of "spec" or "specs"')
    raw = [doc["spec"]] if "spec" in doc else doc["specs"]
    if not isinstance(raw, list):
        raise WireError('"specs" must be a list of spec objects')
    if not raw:
        raise WireError("a job needs at least one spec")
    if len(raw) > MAX_SPECS_PER_JOB:
        raise WireError(
            f"{len(raw)} specs in one job exceeds the "
            f"{MAX_SPECS_PER_JOB} limit; split the batch"
        )
    specs = []
    for i, d in enumerate(raw):
        if not isinstance(d, dict):
            raise WireError(f"spec[{i}] must be an object")
        try:
            spec = RunSpec.from_dict(d)
            # a job's first steps: an override that is unhashable, names
            # no config field or builds no memory hierarchy fails one of
            # them, so fail it here
            hash(spec)
            spec.machine_config().memory()
        except Exception as exc:
            raise WireError(f"spec[{i}] is not a valid RunSpec: {exc}") from None
        if spec.router is not None and spec.router.corpus != "default":
            raise WireError(
                f'spec[{i}]: router.corpus must be "default" over the wire, '
                f"got {spec.router.corpus!r}"
            )
        try:
            get_backend(spec.backend)
        except KeyError as exc:
            msg = exc.args[0] if exc.args else exc
            raise WireError(f"spec[{i}]: {msg}") from None
        specs.append(spec)
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise WireError('"label" must be a string')
    return JobRequest(specs=specs, label=label)


def job_summary(job) -> dict:
    """The lightweight job view (``GET /jobs`` listing, POST reply)."""
    return {
        "id": job.id,
        "label": job.label,
        "state": job.state,
        "n_specs": len(job.specs),
        "created": job.created,
        "started": job.started,
        "finished": job.finished,
        "error": job.error,
        "counters": dict(job.counters),
    }


def job_detail(job) -> str:
    """The full job view (``GET /jobs/{id}``) as JSON text: summary +
    per-spec runs (spec, content key, label and complete stats) once the
    job is done, spliced in as the job dumped them."""
    return splice(job_summary(job), runs=job.runs_json)
