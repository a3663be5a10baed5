"""Characterization walk: each of five shapes pinned on its own.

The walk once had a numpy re-derivation (``model/charwalk_np.py``) that
was equality-tested against the interpreted walk on these five shapes
(:func:`test_pinned_solver.walk_shapes`).  The interpreted walk is now
the only walk; each shape's :class:`~repro.model.charwalk.WorkloadCharacter`
must still equal the one both walks produced, pinned here as a sha256
over its ``repr()``.  ``test_walks_are_pinned`` covers the same shapes
inside one digest over the whole grid; this suite names the shape that
moved and prints its character.
"""

import hashlib

import pytest
from test_pinned_solver import walk_shapes

from repro.model.charwalk import characterize

#: sha256 of each shape's character ``repr()``, in walk_shapes() order
CHARACTERS = {
    "su2cor_1T":
        "a4cfacfa0922c8232a71ea22d78d5f4d9466233ceeccb89f0c5bf5708622e7d3",
    "tomcatv_1T":
        "ecb4c62e64bd997f792b38595929ecf17992809378ec839a34dc0baedb91f53a",
    "mp_4T":
        "09b8347ff5c46a3801b10987b412f89f65e7ee22627ed0e4001f81063257d823",
    "thrash4":
        "188e5fb96f29e1dab9c44afc556a519d0a62b42d0e56e952351be2cdcf17c978",
    "no_warmup":
        "f29922cf52d183f554bb473b36a40085cb98d99780c8608233239ead000d37ec",
}


def test_shape_names_follow_walk_shapes():
    assert len(walk_shapes()) == len(CHARACTERS)


class TestEquality:
    @pytest.mark.parametrize(
        "index, name", enumerate(CHARACTERS), ids=list(CHARACTERS),
    )
    def test_characters_equal(self, index, name):
        spec = walk_shapes()[index]
        text = repr(characterize(spec, spec.machine_config()))
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == CHARACTERS[name], f"{name} walks to {text}"
