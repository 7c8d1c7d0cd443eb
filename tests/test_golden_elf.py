"""Byte-identity pin for the synthetic firmware corpus.

The golden corpus (``test_golden_corpus.py``) pins what the detector
finds; this test pins the ELF bytes those findings come from.  Any
change to ``minicc``, the assemblers or the linker that alters one
emitted byte of a profile image fails here, even when the findings
happen to survive it.

``tests/data/golden_elf_sha256.json`` holds the sha256 of
``build_firmware(key, scale=0.05).elf_bytes`` for every profile and of
both releases of one ``build_version_pair``.  Regenerate deliberately,
and only for an intended change to the emitted code, with::

    PYTHONPATH=src python -c "
    import hashlib, json
    from repro.corpus.fleet import build_version_pair
    from repro.corpus.profiles import PROFILE_ORDER, build_firmware
    sha = lambda b: hashlib.sha256(b.elf_bytes).hexdigest()
    old, new, _ = build_version_pair('dir645', scale=0.05)
    doc = {'scale': 0.05,
           'profiles': {k: sha(build_firmware(k, scale=0.05))
                        for k in PROFILE_ORDER},
           'version_pair': {'key': 'dir645', 'old': sha(old),
                            'new': sha(new)}}
    json.dump(doc, open('tests/data/golden_elf_sha256.json', 'w'),
              indent=2, sort_keys=True)
    "
"""

import hashlib
import json
import os

import pytest

from repro.corpus.fleet import build_version_pair
from repro.corpus.profiles import PROFILE_ORDER, build_firmware

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "data", "golden_elf_sha256.json",
)


def _golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def _sha256(built):
    return hashlib.sha256(built.elf_bytes).hexdigest()


def test_golden_file_covers_every_profile():
    assert sorted(_golden()["profiles"]) == sorted(PROFILE_ORDER)


@pytest.mark.parametrize("key", PROFILE_ORDER)
def test_profile_elf_bytes_match_golden(key):
    golden = _golden()
    built = build_firmware(key, scale=golden["scale"])
    assert _sha256(built) == golden["profiles"][key]


def test_version_pair_elf_bytes_match_golden():
    golden = _golden()
    pair = golden["version_pair"]
    old, new, _flipped = build_version_pair(pair["key"],
                                            scale=golden["scale"])
    assert _sha256(old) == pair["old"]
    assert _sha256(new) == pair["new"]
