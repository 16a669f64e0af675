import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tailshare.errors import DataFormatError, MissingArtifactError
from tailshare.datagen import GenConfig, generate
from tailshare.nn import ModelSpec, OptConfig, init_params
from tailshare.pipeline import RunConfig, assemble, build_task_data, stage1, stage2
from tailshare.store import (
    latest_version_path,
    load_container,
    load_model,
    load_params,
    load_stage1,
    next_version_path,
    save_container,
    save_model,
    save_params,
    save_stage1,
)


SPEC = ModelSpec(3, (5, 4), (2, 2), activation="tanh")


def pipeline_pieces():
    ds = generate(GenConfig(4, 3, 6.0, 60, class_mean_scale=1.8, seed=3))
    td = build_task_data(ds)
    cfg = RunConfig(spec=SPEC,
                    stage1_opt=OptConfig(0.3, epochs=8, batch_size=32, seed=1),
                    stage2_opt=OptConfig(0.3, epochs=8, batch_size=32, seed=2),
                    init_seed=4)
    s1 = stage1(cfg, td)
    s2 = stage2(cfg, td, 0.5)
    model = assemble(SPEC, 1, s2.params, s1, td.split, td.priors)
    return td, s1, s2, model


class TestContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {"alpha": rng.normal(size=37), "beta": rng.normal(size=5)}
        meta = {"kind": "test", "note": "x", "value": 0.1 + 0.2}
        path = tmp_path / "c.bin"
        save_container(path, meta, arrays)
        back_meta, back = load_container(path)
        assert back_meta["value"] == meta["value"]
        for key in arrays:
            assert np.array_equal(back[key], arrays[key])
        # saving the loaded content reproduces identical bytes
        path2 = tmp_path / "c2.bin"
        save_container(path2, {k: v for k, v in back_meta.items() if k != "arrays"}, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(DataFormatError):
            load_container(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingArtifactError):
            load_container(tmp_path / "absent.bin")


def container_bytes(tmp_path):
    path = tmp_path / "ok.bin"
    save_container(path, {"kind": "test", "value": 0.25},
                   {"alpha": np.arange(5.0), "beta": np.linspace(-1.0, 1.0, 3)})
    return path.read_bytes()


def header(meta_blob: bytes) -> bytes:
    return b"TSCONT01" + struct.pack("<I", 1) + struct.pack("<Q", len(meta_blob)) + meta_blob


class TestDamagedContainer:
    @pytest.mark.parametrize("cut", [8 * 8 - 3, 8, 1, 3 * 8])
    def test_truncated_inside_arrays(self, tmp_path, cut):
        raw = container_bytes(tmp_path)
        path = tmp_path / "cut.bin"
        path.write_bytes(raw[:len(raw) - cut])
        with pytest.raises(DataFormatError, match="past the end"):
            load_container(path)

    @pytest.mark.parametrize("size", [8, 12, 19])
    def test_shorter_than_the_header(self, tmp_path, size):
        path = tmp_path / "short.bin"
        path.write_bytes(container_bytes(tmp_path)[:size])
        with pytest.raises(DataFormatError, match="truncated header"):
            load_container(path)

    @pytest.mark.parametrize("blob", [b"\xff\xfe{", b"{not json", b'{"kind": "x"}', b"[1, 2]",
                                      b'{"arrays": [{"name": "a"}]}', b'{"arrays": 7}'])
    def test_bad_metadata(self, tmp_path, blob):
        path = tmp_path / "meta.bin"
        path.write_bytes(header(blob))
        with pytest.raises(DataFormatError, match="metadata"):
            load_container(path)

    @pytest.mark.parametrize("length", [-1, 2.0, "2", None, True])
    def test_bad_array_length(self, tmp_path, length):
        path = tmp_path / "len.bin"
        path.write_bytes(header(json.dumps({"arrays": [{"name": "a", "length": length}]}).encode())
                         + bytes(16))
        with pytest.raises(DataFormatError, match="bad array entry"):
            load_container(path)

    def test_metadata_past_the_end(self, tmp_path):
        raw = bytearray(container_bytes(tmp_path))
        raw[12:20] = struct.pack("<Q", 10 ** 6)
        path = tmp_path / "long_meta.bin"
        path.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="metadata"):
            load_container(path)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_truncation_or_byte_flip_loads_or_raises_data_format_error(self, tmp_path, data):
        raw = bytearray(container_bytes(tmp_path))
        raw = raw[:data.draw(st.integers(0, len(raw)), label="keep")]
        for _ in range(data.draw(st.integers(0, 3), label="flips")):
            if raw:
                raw[data.draw(st.integers(0, len(raw) - 1))] = data.draw(st.integers(0, 255))
        path = tmp_path / "fuzz.bin"
        path.write_bytes(bytes(raw))
        try:
            meta, arrays = load_container(path)
        except DataFormatError:
            return
        assert sum(8 * a.size for a in arrays.values()) < len(raw)


@pytest.fixture(scope="module")
def model_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "m.bin"
    save_model(path, pipeline_pieces()[3], {"refined": False})
    return path.read_bytes()


class TestArtifacts:
    def test_params_round_trip(self, tmp_path):
        params = init_params(SPEC, 7)
        path = tmp_path / "p.bin"
        save_params(path, SPEC, params, {"note": "unit"})
        spec2, back, meta = load_params(path)
        assert spec2 == SPEC
        assert np.array_equal(back.values, params.values)
        assert back.block_index == params.block_index
        assert meta["note"] == "unit"

    def test_stage1_round_trip(self, tmp_path):
        td, s1, _, _ = pipeline_pieces()
        path = tmp_path / "s1.bin"
        save_stage1(path, SPEC, s1, td.split, td.priors, {"n_train": td.n})
        spec2, back, split, priors, meta = load_stage1(path)
        assert spec2 == SPEC
        assert split == td.split
        assert np.array_equal(back.params_a.values, s1.params_a.values)
        assert np.array_equal(back.fisher_b.values, s1.fisher_b.values)
        assert back.losses_a == s1.losses_a
        assert np.array_equal(priors, td.priors)
        assert meta["n_train"] == td.n

    def test_model_round_trip(self, tmp_path):
        _, _, _, model = pipeline_pieces()
        path = tmp_path / "m.bin"
        save_model(path, model, {"refined": False})
        back, meta = load_model(path)
        assert back.c == model.c
        assert back.split == model.split
        assert np.array_equal(back.branch_a.values, model.branch_a.values)
        assert np.array_equal(back.branch_b.values, model.branch_b.values)
        assert np.array_equal(back.priors, model.priors)
        assert meta["refined"] is False


    @pytest.mark.parametrize("loader", [load_params, load_stage1, load_model])
    def test_container_without_the_kind_metadata_rejected(self, tmp_path, loader):
        path = tmp_path / "bare.bin"
        save_container(path, {"kind": "test"}, {"params": np.zeros(3)})
        with pytest.raises(DataFormatError, match="inconsistent artifact"):
            loader(path)

    def test_params_not_matching_their_spec_rejected(self, tmp_path):
        path = tmp_path / "short.bin"
        save_container(path, {"kind": "params", "spec": {"input_dim": 3, "trunk_widths": [5, 4],
                                                         "head_dims": [2, 2], "activation": "tanh"}},
                       {"params": np.zeros(7)})
        with pytest.raises(DataFormatError, match="inconsistent artifact"):
            load_params(path)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_any_metadata_byte_flip_loads_or_raises_data_format_error(self, tmp_path, model_bytes, data):
        raw = bytearray(model_bytes)
        meta_end = 20 + struct.unpack("<Q", raw[12:20])[0]
        for _ in range(data.draw(st.integers(1, 3), label="flips")):
            raw[data.draw(st.integers(20, meta_end - 1))] = data.draw(st.sampled_from(b'0123456789-.,:[]{}"ace'))
        path = tmp_path / "m.bin"
        path.write_bytes(bytes(raw))
        try:
            load_model(path)
        except DataFormatError:
            pass


class TestVersioning:
    def test_versions_append(self, tmp_path):
        p1 = next_version_path(tmp_path, "thing", ".csv")
        assert p1.name == "thing_v001.csv"
        p1.write_text("a")
        p2 = next_version_path(tmp_path, "thing", ".csv")
        assert p2.name == "thing_v002.csv"
        p2.write_text("b")
        assert latest_version_path(tmp_path, "thing", ".csv") == p2
        assert p1.read_text() == "a"  # old artifact untouched

    def test_latest_missing_raises(self, tmp_path):
        with pytest.raises(MissingArtifactError):
            latest_version_path(tmp_path, "nothing", ".bin")
