import re

import numpy as np
import pytest

from conftest import checkpoint_checksum
from mnmt import checkpoint
from mnmt.checkpoint import (
    CheckpointError,
    deserialize,
    load_checkpoint,
    params_from_arrays,
    save_checkpoint,
    serialize,
)
from mnmt.numerics import ParamSet


@pytest.fixture
def pset():
    rng = np.random.default_rng(0)
    ps = ParamSet({"alpha": rng.normal(size=(3, 4)), "beta": rng.normal(size=7)})
    return ps


class TestRoundtrip:
    def test_bytes_stable_after_first_save(self, pset, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), pset, {"kind": "nmt", "embed_dim": 4})
        cfg, arrays = load_checkpoint(str(path))
        assert cfg["embed_dim"] == 4
        reloaded = params_from_arrays(arrays)
        path2 = tmp_path / "again.ckpt"
        save_checkpoint(str(path2), reloaded, cfg)
        assert path.read_bytes() == path2.read_bytes()

    def test_values_are_float32_rounded(self, pset, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), pset, {})
        _, arrays = load_checkpoint(str(path))
        np.testing.assert_array_equal(
            arrays["alpha"], pset["alpha"].data.astype(np.float32).astype(np.float64)
        )

    def test_names_and_shapes_preserved(self, pset, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), pset, {})
        _, arrays = load_checkpoint(str(path))
        assert set(arrays) == {"alpha", "beta"}
        assert arrays["alpha"].shape == (3, 4)
        assert arrays["beta"].shape == (7,)


class TestCorruptionDetection:
    def test_single_byte_flip_detected(self, pset, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), pset, {})
        blob = bytearray(path.read_bytes())
        for offset in (7, len(blob) // 2, len(blob) - 9):
            corrupted = bytearray(blob)
            corrupted[offset] ^= 0x41
            with pytest.raises(CheckpointError, match="checksum"):
                deserialize(bytes(corrupted))

    def test_load_error_names_file(self, pset, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), pset, {})
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x41
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: checkpoint checksum mismatch"):
            load_checkpoint(str(path))

    def test_truncation_detected(self, pset, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), pset, {})
        with pytest.raises(CheckpointError):
            deserialize(path.read_bytes()[:10])

    def test_bad_magic_detected(self):
        blob = serialize({"w": np.zeros(2)}, {})
        tampered = b"XXXXXX" + blob[6:]
        # checksum catches the edit; re-sign to reach the magic check
        from mnmt.checkpoint import _checksum

        payload = tampered[:-8]
        with pytest.raises(CheckpointError, match="magic"):
            deserialize(payload + _checksum(payload))

    def test_checksum_helper_is_stable(self, pset, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), pset, {})
        assert checkpoint_checksum(str(path)) == checkpoint_checksum(str(path))


class _HalfWriter:
    """A binary file whose write stores half of its bytes, then fails."""

    def __init__(self, f):
        self.f = f

    def write(self, blob):
        self.f.write(blob[: len(blob) // 2])
        raise OSError("disk full")

    def __getattr__(self, name):
        return getattr(self.f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


class TestAtomicSave:
    def test_interrupted_save_keeps_previous_file(self, pset, tmp_path, monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(str(path), pset, {"kind": "nmt"})
        before = path.read_bytes()
        pset["alpha"].data += 1.0

        real_open = open
        with monkeypatch.context() as m:
            m.setattr(checkpoint, "open", lambda *a: _HalfWriter(real_open(*a)), raising=False)
            with pytest.raises(OSError, match="disk full"):
                save_checkpoint(str(path), pset, {"kind": "nmt"})
        with monkeypatch.context() as m:
            m.setattr(checkpoint, "serialize", lambda *a: (_ for _ in ()).throw(KeyboardInterrupt))
            with pytest.raises(KeyboardInterrupt):
                save_checkpoint(str(path), pset, {"kind": "nmt"})

        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
        save_checkpoint(str(path), pset, {"kind": "nmt"})
        assert path.read_bytes() != before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
