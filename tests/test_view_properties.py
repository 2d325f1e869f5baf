"""Hypothesis properties of :class:`JobView`'s wire shape.

``JobView.to_dict`` builds its dict shallowly from the dataclass's
field names.  These properties pin what the wire may rely on: every
field is on the wire under its own name (so a field added later cannot
silently drop off it), the dict equals the deep ``dataclasses.asdict``
reference, and ``from_dict`` rebuilds the same view -- also after a
JSON round-trip -- for nested payloads and non-empty ``depends_on``.
"""

from __future__ import annotations

import dataclasses
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import JobState, JobView

_json = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=20,
)

_views = st.builds(
    JobView,
    id=st.text(min_size=1, max_size=12),
    kind=st.sampled_from(["probe", "sim", "run", "reduce"]),
    state=st.sampled_from([s.value for s in JobState]),
    attempts=st.integers(min_value=0, max_value=10),
    max_retries=st.integers(min_value=0, max_value=10),
    timeout=st.floats(min_value=0, max_value=1e6),
    cached=st.booleans(),
    key=st.text(max_size=16),
    payload=st.dictionaries(st.text(max_size=8), _json, max_size=5),
    error=st.text(max_size=20),
    result_key=st.text(max_size=16),
    worker=st.text(max_size=8),
    created=st.floats(min_value=0, max_value=2e9),
    updated=st.floats(min_value=0, max_value=2e9),
    depends_on=st.lists(st.text(min_size=1, max_size=12), min_size=1,
                        max_size=4).map(tuple),
)


class TestJobViewWireShape:
    @given(view=_views)
    @settings(max_examples=200, deadline=None)
    def test_every_field_is_on_the_wire(self, view):
        wire = view.to_dict()
        assert set(wire) == {f.name for f in dataclasses.fields(JobView)}
        assert isinstance(wire["depends_on"], list)
        reference = dataclasses.asdict(view)
        reference["depends_on"] = list(view.depends_on)
        assert wire == reference

    @given(view=_views)
    @settings(max_examples=200, deadline=None)
    def test_round_trips_through_json(self, view):
        assert JobView.from_dict(view.to_dict()) == view
        wire = json.loads(json.dumps(view.to_dict(), sort_keys=True))
        assert JobView.from_dict(wire) == view
