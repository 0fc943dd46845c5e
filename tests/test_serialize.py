"""JSON round trips (through the readers in tests/oracles.py) and byte
stability."""

from __future__ import annotations

import json
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from helpers import bag_sig, bag_system, commvec_indexed, commvec_system
from oracles import indexed_signature_from_obj, signature_from_obj, system_from_obj
from qitbench.serialize import (
    dumps,
    loads,
    signature_to_obj,
    system_to_obj,
)

GOLDEN = Path(__file__).parent / "golden"


def test_signature_round_trip():
    sig = bag_sig()
    assert signature_from_obj(loads(dumps(signature_to_obj(sig)))) == sig


def test_indexed_signature_round_trip():
    isig = commvec_indexed()
    assert indexed_signature_from_obj(loads(dumps(signature_to_obj(isig)))) == isig


def test_system_round_trip():
    for sys in (bag_system(), commvec_system()):
        assert system_from_obj(loads(dumps(system_to_obj(sys)))) == sys


def test_dump_is_byte_stable_against_golden():
    text = dumps({"signature": signature_to_obj(bag_sig()), "system": system_to_obj(bag_system())})
    golden = (GOLDEN / "bag_system.json").read_text()
    assert text == golden
    # a second dump of freshly built objects is identical
    again = dumps({"signature": signature_to_obj(bag_sig()), "system": system_to_obj(bag_system())})
    assert again == text


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(st.dictionaries(st.text(), JSON, max_size=4))
def test_dumps_writes_what_json_indent_2_writes(obj):
    assert dumps(obj) == json.dumps(obj, indent=2) + "\n"
