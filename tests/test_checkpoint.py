"""Checkpoint files: bit-exact round trips, the sidecar kind check, typed
errors for corrupt files, and loading files in the v1 layout written
before the model classes saved themselves."""

import json
import struct
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitforge.alignment import OmniModel
from unitforge.checkpoint import (MAGIC, assign_parameters, load_checkpoint,
                                  meta_path, save_checkpoint)
from unitforge.data import AlignmentSpec
from unitforge.decoder import SpeechDecoder, SpeechDecoderConfig
from unitforge.errors import DataError, KindMismatchError
from unitforge.tensor import Tensor

META = {"kind": "test", "note": [1, 2]}


def make_params(rng):
    return {
        "layer.w": Tensor(rng.normal(0.0, 1.0, (4, 3)), requires_grad=True),
        "layer.b": Tensor(rng.normal(0.0, 1.0, 3), requires_grad=True),
        "emb.table": Tensor(rng.normal(0.0, 1.0, (7, 4)), requires_grad=True),
    }


def write_v1(path, arrays: dict):
    """The v1 parameter layout, written record by record as the code
    before the sidecar move did (which stored a 0-d array as rank 1)."""
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<II", 1, len(arrays)))
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr, dtype="<f8")
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)) + nb)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(arr.tobytes())


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    params = make_params(rng)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, META)
    loaded, meta = load_checkpoint(path, "kind")
    assert meta == META
    assert set(loaded) == set(params)
    for name, p in params.items():
        assert loaded[name].tobytes() == p.data.tobytes()


def test_save_is_deterministic(tmp_path):
    rng = np.random.default_rng(1)
    params = make_params(rng)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, params, META)
    save_checkpoint(p2, params, META)
    assert p1.read_bytes() == p2.read_bytes()
    assert open(meta_path(p1)).read() == open(meta_path(p2)).read()


def test_binary_matches_v1_layout_and_sidecar_format(tmp_path):
    rng = np.random.default_rng(5)
    arrays = {"w": rng.normal(size=(2, 3)), "t": rng.normal(size=(3, 2)).T,
              "e": np.zeros(0)}
    save_checkpoint(tmp_path / "a.ckpt", arrays, {"b": 1, "a": [2]})
    write_v1(tmp_path / "b.ckpt", arrays)
    assert (tmp_path / "a.ckpt").read_bytes() == \
        (tmp_path / "b.ckpt").read_bytes()
    assert open(meta_path(tmp_path / "a.ckpt")).read() == \
        '{\n"a": [\n2\n],\n"b": 1\n}\n'


def test_moment_like_names_are_parameters(tmp_path):
    params = {"x": np.arange(3.0), "x.m": np.ones(3), "x.v": np.full(2, 7.0),
              "y.m": np.zeros((1, 2))}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, META)
    loaded, _ = load_checkpoint(path, "kind")
    assert list(loaded) == list(params)
    for name, arr in params.items():
        assert np.array_equal(loaded[name], arr)


def test_names_once_read_as_per_head_or_per_expert_load_as_saved(tmp_path):
    rng = np.random.default_rng(6)
    params = {name: Tensor(rng.normal(size=shape)) for name, shape in (
        ("a.q.w", (3, 2)), ("a.k2.w", (3, 2)), ("m.expert0.fc1.w", (2, 4)),
        ("tgm.xattn.v.w", (4, 4)))}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, META)
    loaded, _ = load_checkpoint(path, "kind")
    live = {name: Tensor(np.zeros(p.shape)) for name, p in params.items()}
    assign_parameters(live, loaded)
    for name, p in params.items():
        assert live[name].data.tobytes() == p.data.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(
    st.text(min_size=1, max_size=12),
    st.lists(st.integers(0, 3), max_size=3).map(tuple), max_size=5),
    st.integers(0, 2**32 - 1))
def test_round_trip_property(tmp_path_factory, shapes, seed):
    rng = np.random.default_rng(seed)
    params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    path = tmp_path_factory.mktemp("prop") / "model.ckpt"
    save_checkpoint(path, params, META)
    loaded, meta = load_checkpoint(path, "kind")
    assert meta == META and list(loaded) == list(params)
    for name, arr in params.items():
        assert loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes()


def test_header_layout(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": Tensor(np.zeros((2, 2)))}, META)
    blob = path.read_bytes()
    assert blob[:4] == MAGIC
    version, count = struct.unpack_from("<II", blob, 4)
    assert (version, count) == (1, 1)
    (nlen,) = struct.unpack_from("<H", blob, 12)
    assert blob[14:14 + nlen] == b"w"


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    open(meta_path(path), "w").write(json.dumps(META))
    with pytest.raises(DataError):
        load_checkpoint(path, "kind")


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(MAGIC + struct.pack("<II", 99, 0))
    open(meta_path(path), "w").write(json.dumps(META))
    with pytest.raises(DataError):
        load_checkpoint(path, "kind")


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": Tensor(np.zeros(2))}, META)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DataError):
        load_checkpoint(path, "kind")


def test_every_truncation_is_a_data_error(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"a.w": np.ones((2, 2)), "b": np.zeros(0),
                           "é": np.float64(3.0)}, META)
    blob = path.read_bytes()
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(DataError):
            load_checkpoint(path, "kind")


def test_huge_dims_are_a_data_error(tmp_path):
    path = tmp_path / "model.ckpt"
    path.write_bytes(MAGIC + struct.pack("<IIH", 1, 1, 1) + b"w"
                     + struct.pack("<BQQ", 2, 2**63, 2**63))
    open(meta_path(path), "w").write(json.dumps(META))
    with pytest.raises(DataError):
        load_checkpoint(path, "kind")


@pytest.mark.parametrize("sidecar, error", [
    (None, KindMismatchError),
    ('{"other": 1}\n', KindMismatchError),
    ('["kind"]\n', KindMismatchError),
    ('{"kind": \n', DataError),
    (b"\xff\xfe{}", DataError),
], ids=["missing", "no_kind_key", "not_an_object", "not_json", "not_utf8"])
def test_sidecar_errors_are_typed(tmp_path, sidecar, error):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.zeros(2)}, META)
    sidecar_file = tmp_path / "model.ckpt.meta.json"
    if sidecar is None:
        sidecar_file.unlink()
    elif isinstance(sidecar, bytes):
        sidecar_file.write_bytes(sidecar)
    else:
        sidecar_file.write_text(sidecar)
    with pytest.raises(error):
        load_checkpoint(path, "kind")


def test_missing_binary_is_file_not_found(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"w": np.zeros(2)}, META)
    path.unlink()
    with pytest.raises(FileNotFoundError):
        load_checkpoint(path, "kind")


def test_assign_parameters_guards():
    rng = np.random.default_rng(4)
    params = make_params(rng)
    loaded = {name: p.data.copy() for name, p in params.items()}
    with pytest.raises(DataError):
        assign_parameters(params, {k: v for k, v in loaded.items()
                                   if k != "layer.b"})
    with pytest.raises(DataError):
        assign_parameters(params, {**loaded, "rogue": np.zeros(1)})
    bad = dict(loaded)
    bad["layer.w"] = np.zeros((3, 4))
    with pytest.raises(DataError):
        assign_parameters(params, bad)
    assign_parameters(params, loaded)
    for name, p in params.items():
        assert np.array_equal(p.data, loaded[name])


# ---------------------------------------------------------------------------
# model files


TINY_DECODER = SpeechDecoderConfig(mode="nar", layers=1, experts=2,
                                   model_dim=8, heads=2, vocab_nar=12,
                                   vocab_ar=16, upsample=2, max_units=10,
                                   max_context=6, text_vocab=5, seed=3)
TINY_SPEC = AlignmentSpec(seed=3, n_speech_text=4, n_image_text=4,
                          n_instruct=4, n_probe=2)


def test_decoder_pair_in_v1_format_loads_and_saves_identically(tmp_path):
    dec = SpeechDecoder(TINY_DECODER)
    old = tmp_path / "old.ckpt"
    write_v1(old, {k: p.data for k, p in dec.parameters().items()})
    with open(meta_path(old), "w") as fh:
        json.dump(asdict(TINY_DECODER), fh, sort_keys=True, indent=0)
        fh.write("\n")
    clone = SpeechDecoder.load(old)
    assert clone.config == TINY_DECODER
    for k, p in dec.parameters().items():
        assert np.array_equal(clone.parameters()[k].data, p.data)
    new = tmp_path / "new.ckpt"
    clone.save(new)
    assert new.read_bytes() == old.read_bytes()
    assert open(meta_path(new)).read() == open(meta_path(old)).read()


def test_alignment_pair_in_v1_format_loads(tmp_path):
    model = OmniModel(TINY_SPEC, d=8, layers=1, heads=2, seed=4)
    model.completed_stages = {"pretrain", "I", "II"}
    old = tmp_path / "old.ckpt"
    arrays = {k: p.data for k, p in model.parameters().items()}
    write_v1(old, {**arrays, "meta.stages": np.array([0.0, 1.0])})
    spec = asdict(TINY_SPEC)
    spec["seq_len"] = list(spec["seq_len"])
    with open(meta_path(old), "w") as fh:  # no indent, as written then
        json.dump({"alignment_spec": spec,
                   "arch": {"d": 8, "layers": 1, "heads": 2}}, fh,
                  sort_keys=True)
        fh.write("\n")
    clone = OmniModel.load(old)
    assert clone.spec == TINY_SPEC
    assert clone.arch == {"d": 8, "layers": 1, "heads": 2}
    assert clone.completed_stages == {"I", "II"}
    for k, p in model.parameters().items():
        assert np.array_equal(clone.parameters()[k].data, p.data)
    new = tmp_path / "new.ckpt"
    clone.save(new)
    assert new.read_bytes() == old.read_bytes()
    assert json.load(open(meta_path(new))) == json.load(open(meta_path(old)))


def test_model_loads_reject_the_other_kind(tmp_path):
    SpeechDecoder(TINY_DECODER).save(tmp_path / "dec.ckpt")
    OmniModel(TINY_SPEC, d=8, layers=1).save(tmp_path / "omni.ckpt")
    with pytest.raises(KindMismatchError):
        SpeechDecoder.load(tmp_path / "omni.ckpt")
    with pytest.raises(KindMismatchError):
        OmniModel.load(tmp_path / "dec.ckpt")


@pytest.mark.parametrize("edit", [
    lambda m: m.update(wibble=1), lambda m: m.pop("experts"),
], ids=["unknown_key", "missing_key"])
def test_decoder_sidecar_must_name_every_config_field(tmp_path, edit):
    path = tmp_path / "dec.ckpt"
    SpeechDecoder(TINY_DECODER).save(path)
    meta = json.load(open(meta_path(path)))
    edit(meta)
    json.dump(meta, open(meta_path(path), "w"))
    with pytest.raises(DataError):
        SpeechDecoder.load(path)


@pytest.mark.parametrize("edit", [
    lambda m: m["alignment_spec"].update(wibble=1),
    lambda m: m["alignment_spec"].pop("speech_dim"),
    lambda m: m["arch"].update(dim=64),
    lambda m: m.pop("arch"),
    lambda m: m["alignment_spec"].update(noise=float("nan")),
], ids=["unknown_spec_key", "missing_spec_key", "unknown_arch_key",
        "missing_arch", "nan_noise"])
def test_alignment_sidecar_must_name_every_field(tmp_path, edit):
    path = tmp_path / "omni.ckpt"
    OmniModel(TINY_SPEC, d=8, layers=1).save(path)
    meta = json.load(open(meta_path(path)))
    edit(meta)
    json.dump(meta, open(meta_path(path), "w"))
    with pytest.raises(DataError):
        OmniModel.load(path)
