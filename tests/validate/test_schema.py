"""Unit tests for the artifact schema validator."""

import json

import pytest

from repro.errors import ReproError, SchemaError
from repro.validate.schema import (
    ANY,
    ARTIFACT_SCHEMAS,
    ListOf,
    MapOf,
    Opt,
    TupleOf,
    artifact_kind,
    check,
    parse_artifact,
    validate_artifact,
)


class TestCheck:
    def test_scalar_types(self):
        check("x", str)
        check(3, int)
        check(3.5, float)
        check(3, float)  # JSON number: int acceptable as float
        check(True, bool)
        check(None, (str, type(None)))

    def test_bool_is_not_int(self):
        with pytest.raises(SchemaError, match=r"\$: expected int, got bool"):
            check(True, int)

    def test_bool_is_not_float(self):
        with pytest.raises(SchemaError):
            check(True, float)

    def test_missing_field_names_path(self):
        with pytest.raises(SchemaError, match=r"\$\.stats\.final: missing"):
            check({"stats": {}}, {"stats": {"final": int}})

    def test_wrong_type_names_path(self):
        with pytest.raises(SchemaError, match=r"\$\.n: expected int, got string"):
            check({"n": "five"}, {"n": int})

    def test_list_index_in_path(self):
        with pytest.raises(SchemaError, match=r"\$\.xs\[2\]"):
            check({"xs": [1, 2, "three"]}, {"xs": ListOf(int)})

    def test_nested_list_path(self):
        spec = ListOf(ListOf(str))
        with pytest.raises(SchemaError, match=r"\$\[0\]\[1\]"):
            check([["ok", 7]], spec)

    def test_tuple_of_matches_items_in_order(self):
        spec = TupleOf(str, int, (float, type(None)))
        check(["a", 1, None], spec)
        check(["a", 1, 2.5], spec)
        with pytest.raises(SchemaError, match=r"\$\[1\]: expected int, got string"):
            check(["a", "b", None], spec)

    def test_tuple_of_requires_its_exact_length(self):
        spec = TupleOf(str, int)
        with pytest.raises(SchemaError, match=r"\$: expected 2 items, got 1"):
            check(["a"], spec)
        with pytest.raises(SchemaError, match=r"\$: expected 2 items, got 3"):
            check(["a", 1, 2], spec)
        with pytest.raises(SchemaError, match=r"\$: expected array, got object"):
            check({"a": 1}, spec)

    def test_map_of(self):
        check({"a": 1, "b": 2}, MapOf(int))
        with pytest.raises(SchemaError, match=r"\$\.b"):
            check({"a": 1, "b": "x"}, MapOf(int))

    def test_optional_key_absent_ok(self):
        check({}, {"maybe": Opt(int)})

    def test_optional_key_present_checked(self):
        with pytest.raises(SchemaError, match=r"\$\.maybe"):
            check({"maybe": "x"}, {"maybe": Opt(int)})

    def test_any_accepts_everything(self):
        check({"weird": [1, {"nested": None}]}, {"weird": ANY})

    def test_extra_keys_tolerated(self):
        check({"known": 1, "future": "field"}, {"known": int})

    @pytest.mark.parametrize("results, message", [
        ([["v", None, [{"a": 1}, {"a": "x"}]]],
         "$.shards.s24.s1.results[0][2][1].a: expected int, got string"),
        ([["v", {"k": 1.5}, []]],
         "$.shards.s24.s1.results[0][1]: no union alternative matched "
         "($.shards.s24.s1.results[0][1].k: expected int, got number; "
         "$.shards.s24.s1.results[0][1]: expected null, got object)"),
        ([["v", None, [{}]]],
         "$.shards.s24.s1.results[0][2][0].a: missing required field"),
    ])
    def test_deep_paths_are_spelled_out_in_full(self, results, message):
        spec = {"shards": Opt(MapOf(MapOf({"results": ListOf(TupleOf(
            str, (MapOf(int), type(None)), ListOf({"a": int}),
        ))})))}
        with pytest.raises(SchemaError) as caught:
            check({"shards": {"s24": {"s1": {"results": results}}}}, spec)
        assert str(caught.value) == message

    def test_non_string_key_names_its_parent(self):
        with pytest.raises(SchemaError) as caught:
            check({"shards": {"s24": {3: {}}}}, {"shards": MapOf(MapOf(ANY))})
        assert str(caught.value) == "$.shards.s24: non-string key 3"


class TestArtifacts:
    def _minimal_region(self):
        return {
            "schema": 1, "kind": "cable-region", "name": "r",
            "agg_cos": ["A"], "edge_cos": ["E"], "agg_groups": [["A"]],
            "edges": [{"from": "A", "to": "E", "observations": 3,
                       "inferred": False}],
            "stats": {"initial_edges": 1, "removed_edge_edges": 0,
                      "added_ring_edges": 0, "final_edges": 1},
        }

    def test_valid_region_passes(self):
        validate_artifact(self._minimal_region())

    def test_kind_mismatch(self):
        with pytest.raises(SchemaError, match="expected 'telco-region'"):
            validate_artifact(self._minimal_region(), kind="telco-region")

    def test_unknown_kind(self):
        with pytest.raises(SchemaError, match="unknown artifact kind"):
            validate_artifact({"schema": 1, "kind": "mystery"})

    def test_bad_version(self):
        payload = self._minimal_region()
        payload["schema"] = 99
        with pytest.raises(SchemaError, match="unsupported cable-region"):
            validate_artifact(payload)

    def test_missing_kind(self):
        with pytest.raises(SchemaError, match=r"\$\.kind"):
            artifact_kind({"schema": 1})

    def test_non_object_payload(self):
        with pytest.raises(SchemaError, match=r"\$: expected object"):
            artifact_kind([1, 2, 3])

    def test_parse_rejects_invalid_json(self):
        with pytest.raises(SchemaError, match="not valid JSON"):
            parse_artifact("{trunca")

    def test_parse_roundtrip(self):
        text = json.dumps(self._minimal_region())
        payload = parse_artifact(text, kind="cable-region")
        assert payload["name"] == "r"

    def test_every_kind_has_schema_and_version(self):
        from repro.validate.schema import ARTIFACT_VERSIONS

        assert set(ARTIFACT_SCHEMAS) == set(ARTIFACT_VERSIONS)

    def test_schema_errors_are_repro_errors(self):
        assert issubclass(SchemaError, ReproError)
