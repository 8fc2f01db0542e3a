"""The JSON encoder: the bulk float-array path against the generic list path, atomic saves, and the reader."""

import json
from pathlib import Path

import numpy as np
import pytest

from moe_forge import jsonio
from moe_forge.errors import PipelineError
from moe_forge.jsonio import _encode, dumps, load_json, save_json
from moe_forge.model import load_model, model_to_doc, save_model

from conftest import random_model


def _as_lists(obj):
    """The same document with every ndarray turned into nested lists."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: _as_lists(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_lists(item) for item in obj]
    return obj


def generic(obj, indent=None) -> str:
    """Encoding through the per-element list path only."""
    out: list[str] = []
    _encode(_as_lists(obj), out, indent, 0)
    return "".join(out)


SPECIAL = [5e-324, -5e-324, 2.2250738585072014e-308, -0.0, 0.0, 1e308, -1e308, 1e300, 0.1, 1 / 3]


class TestFloatArrays:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(0,), (1,), (9,), (4, 5), (3, 0), (0, 2), (2, 3, 4)])
    @pytest.mark.parametrize("indent", [None, 2])
    def test_equals_the_generic_path(self, rng, dtype, shape, indent):
        scale = 10.0 ** rng.integers(-30, 30, size=shape)
        arr = (rng.standard_normal(shape) * scale).astype(dtype)
        assert dumps(arr, indent=indent) == generic(arr, indent=indent)

    @pytest.mark.parametrize("indent", [None, 2])
    def test_extreme_values_equal_the_generic_path(self, indent):
        arr = np.array(SPECIAL)
        assert dumps(arr, indent=indent) == generic(arr, indent=indent)
        # 17 digits each, except -0.0, which keeps its ".0" so that json reads a float
        expected = ("-0.0" if str(x) == "-0.0" else f"{x:.17g}" for x in SPECIAL)
        assert dumps(arr) == "[" + ", ".join(expected) + "]"
        wide = np.array([SPECIAL, SPECIAL[::-1]])
        assert dumps({"w": wide}, indent=indent) == generic({"w": wide}, indent=indent)

    def test_int_bool_and_zero_dim_arrays_keep_their_text(self):
        doc = {"i": np.arange(4), "b": np.array([True, False]), "s": np.array(2.5)}
        assert dumps(doc) == '{"i": [0, 1, 2, 3], "b": [true, false], "s": 2.5}'

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_non_finite_raises_the_scalar_message(self, bad, dtype):
        for arr in (np.array([1.0, bad, 2.0]), np.array([[1.0, 2.0], [3.0, bad]])):
            arr = arr.astype(dtype)
            with pytest.raises(ValueError) as fast:
                dumps(arr)
            with pytest.raises(ValueError) as slow:
                generic(arr)
            assert str(fast.value) == str(slow.value) == f"cannot serialize non-finite float {bad!r}"

    @pytest.mark.parametrize("ensembler", ["bagging", "stacking"])
    def test_model_doc_equals_the_generic_encoding(self, rng, ensembler):
        doc = model_to_doc(random_model(rng, ensembler=ensembler))
        assert dumps(doc) == generic(doc)


class TestNegativeZero:
    """-0.0 keeps its sign through dumps and json.loads, on the scalar and the bulk path."""

    @pytest.mark.parametrize(
        "value",
        [-0.0, np.float64(-0.0), np.array([1.5, -0.0, 0.0, -2.0]), np.array([[-0.0, 2.0], [0.0, -0.0]])],
        ids=["float", "np.float64", "1-d", "2-d"],
    )
    def test_sign_survives_a_round_trip(self, value):
        back = np.asarray(json.loads(dumps(value)), dtype=np.float64)
        np.testing.assert_array_equal(back, value)
        np.testing.assert_array_equal(np.signbit(back), np.signbit(value))

    def test_arrays_without_negative_zero_keep_their_text(self):
        arr = np.array([0.0, -1.5, 2.0, 0.0, -1e-300])
        assert dumps(arr) == "[0, -1.5, 2, 0, -1e-300]"
        assert dumps(-1e-300) == "-1e-300"

    def test_model_checkpoint_keeps_the_sign(self, rng, tmp_path):
        model = random_model(rng)
        model.base.layers[0].bias[1] = -0.0
        model.gate.weight[2, 3] = -0.0
        save_model(tmp_path / "model.json", model)
        loaded = load_model(tmp_path / "model.json")
        assert np.signbit(loaded.base.layers[0].bias[1])
        assert np.signbit(loaded.gate.weight[2, 3])
        assert not np.signbit(loaded.gate.weight[2, 2])


class TestSaveJson:
    def test_writes_dumps_text_through_the_module_dumps(self, tmp_path, monkeypatch):
        calls = []

        def counting_dumps(obj, indent=None):
            calls.append(obj)
            return dumps(obj, indent=indent)

        monkeypatch.setattr(jsonio, "dumps", counting_dumps)
        doc = {"a": np.arange(3.0), "b": [1, "x"]}
        save_json(tmp_path / "doc.json", doc, indent=2)
        assert len(calls) == 1
        assert (tmp_path / "doc.json").read_text() == dumps(doc, indent=2) + "\n"
        assert load_json(tmp_path / "doc.json") == {"a": [0.0, 1.0, 2.0], "b": [1, "x"]}

    def test_failed_write_leaves_the_previous_file_and_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        save_json(path, {"version": 1})
        before = path.read_bytes()
        real_open = Path.open

        class FailAfterFirstWrite:
            """The file save_json opens, except that its second write raises."""

            def __init__(self, file):
                self.file, self.writes = file, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.file.close()

            def write(self, text):
                self.writes += 1
                if self.writes > 1:
                    raise OSError("disk full")
                return self.file.write(text)

        monkeypatch.setattr(jsonio, "_WRITE_SLICE", 16)  # the document takes many slices
        monkeypatch.setattr(Path, "open", lambda self, *a, **kw: FailAfterFirstWrite(real_open(self, *a, **kw)))
        with pytest.raises(OSError, match="disk full"):
            save_json(path, {"version": 2, "weights": np.ones(100)})
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]

    def test_unencodable_document_touches_nothing(self, tmp_path):
        path = tmp_path / "model.json"
        save_json(path, {"version": 1})
        with pytest.raises(ValueError):
            save_json(path, {"weights": np.array([np.nan])})
        assert load_json(path) == {"version": 1}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


    def test_text_longer_than_a_slice_writes_the_same_bytes(self, tmp_path, monkeypatch):
        doc = {"weights": np.linspace(-1.0, 1.0, 50), "name": "x" * 40}
        save_json(tmp_path / "one.json", doc)
        monkeypatch.setattr(jsonio, "_WRITE_SLICE", 7)
        save_json(tmp_path / "many.json", doc)
        assert (tmp_path / "many.json").read_bytes() == (tmp_path / "one.json").read_bytes()
        assert (tmp_path / "many.json").read_text() == dumps(doc) + "\n"


class TestLoadJson:
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_numbers_are_rejected_naming_the_file(self, tmp_path, token):
        path = tmp_path / "doc.json"
        path.write_text(f'{{"weights": [0.5, {token}]}}')
        with pytest.raises(PipelineError, match=f"^{path}: non-finite number {token} "):
            load_json(path)

    @pytest.mark.parametrize("text, value", [('"NaN"', "NaN"), ("-1e308", -1e308), ("-0.0", -0.0)])
    def test_finite_extremes_and_strings_that_spell_nan_load(self, tmp_path, text, value):
        path = tmp_path / "doc.json"
        path.write_text(f'{{"value": {text}}}')
        loaded = load_json(path)["value"]
        assert loaded == value and repr(loaded) == repr(value)


class TestFragment:
    @pytest.mark.parametrize("ensembler", ["bagging", "stacking"])
    def test_a_fragment_writes_the_same_text_as_its_value(self, rng, ensembler):
        doc = model_to_doc(random_model(rng, ensembler=ensembler))
        held = {**doc, "experts": [jsonio.encode(e) for e in doc["experts"]]}
        assert dumps(held) == dumps(doc)
        assert dumps([jsonio.encode({"a": [-0.0, 0.1]}), 2]) == dumps([{"a": [-0.0, 0.1]}, 2])

    def test_a_fragment_under_indent_raises(self):
        doc = {"expert": jsonio.encode({"a": [1.0, 2.0]})}
        with pytest.raises(ValueError, match="indent"):
            dumps(doc, indent=2)
