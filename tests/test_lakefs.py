"""Lake filesystem backends: scheme dispatch, primitive semantics, and the
no-rename guarantee of the object-store path."""

import inspect
import os

import pyarrow as pa
import pytest

from dataxray.state import lakefs


def backends(tmp_path):
    local_fs, local_base = lakefs.resolve(str(tmp_path / "l"))
    obj_fs, obj_base = lakefs.resolve(f"mocks3://{tmp_path / 'o'}")
    return [(local_fs, local_base), (obj_fs, obj_base)]


def test_resolve_dispatch(tmp_path):
    fs, base = lakefs.resolve(str(tmp_path))
    assert isinstance(fs, lakefs.LocalLakeFS) and base == str(tmp_path)
    fs, base = lakefs.resolve(f"file://{tmp_path}")
    assert isinstance(fs, lakefs.LocalLakeFS) and base == str(tmp_path)
    fs, base = lakefs.resolve(f"mocks3://{tmp_path}")
    assert isinstance(fs, lakefs.ObjectLakeFS) and base == str(tmp_path)
    assert fs.scheme == "mocks3"


def test_json_roundtrip_and_parquet(tmp_path):
    for fs, base in backends(tmp_path):
        fs.makedirs(base)
        j = os.path.join(base, "m.json")
        fs.put_json(j, {"a": 1})
        assert fs.read_json(j) == {"a": 1}
        fs.put_json(j, {"a": 2})  # overwrite = new full object
        assert fs.read_json(j) == {"a": 2}
        p = os.path.join(base, "t.parquet")
        t = pa.table({"x": [1, 2, 3]})
        fs.write_parquet(t, p, compression="zstd")
        assert fs.read_parquet(p).equals(t)


def test_finalize_moves_staged_object(tmp_path):
    for fs, base in backends(tmp_path):
        staging = os.path.join(base, "_staging")
        final = os.path.join(base, "final")
        fs.makedirs(staging)
        fs.makedirs(final)
        src = os.path.join(staging, "d.parquet")
        t = pa.table({"x": [9]})
        fs.write_parquet(t, src, compression="zstd")
        dest = os.path.join(final, "d.parquet")
        fs.finalize(src, dest)
        assert not fs.exists(src) and fs.exists(dest)
        assert fs.read_parquet(dest).equals(t)


def test_finalize_keep_src_leaves_the_staging_prefix(tmp_path):
    """A commit finalizes with keep_src: on the object store the staged
    object (so its staging prefix) stays until the staging is deleted —
    the trace a crash after the last finalize leaves for sweep_staging."""
    for fs, base in backends(tmp_path):
        staging = os.path.join(base, "_staging", "run")
        fs.makedirs(staging)
        src = os.path.join(staging, "d.parquet")
        fs.write_parquet(pa.table({"x": [9]}), src, compression="zstd")
        dest = os.path.join(base, "final", "d.parquet")
        fs.makedirs(os.path.dirname(dest))
        fs.finalize(src, dest, keep_src=True)
        assert fs.exists(dest) and fs.exists(staging)
        assert fs.exists(src) == isinstance(fs, lakefs.ObjectLakeFS)
        fs.delete_tree(staging)
        assert not fs.exists(staging) and fs.exists(dest)


def test_mocks3_prefixes_are_virtual(tmp_path):
    """mocks3 directories behave as S3 prefixes: one exists only while an
    object lies under it, and its mtime is its newest object's."""
    fs, base = lakefs.resolve(f"mocks3://{tmp_path / 'o'}")
    d = os.path.join(base, "_staging", "run")
    fs.makedirs(d)
    assert not fs.exists(d) and fs.list_names(os.path.dirname(d)) == []
    fs.put_json(os.path.join(d, "a", "x.json"), {})
    fs.put_json(os.path.join(d, "y.json"), {})
    os.utime(os.path.join(d, "a", "x.json"), (1000.0, 1000.0))
    os.utime(os.path.join(d, "y.json"), (2000.0, 2000.0))
    assert fs.pafs.get_file_info(d).mtime is None
    assert fs.mtime(d) == 2000.0 and fs.mtime(os.path.join(d, "a")) == 1000.0
    assert fs.list_names(os.path.dirname(d)) == ["run"]
    fs.delete_file(os.path.join(d, "y.json"))
    fs.delete_file(os.path.join(d, "a", "x.json"))
    assert not fs.exists(d) and fs.mtime(d) == 0.0
    assert fs.list_names(os.path.dirname(d)) == []


def test_list_and_delete_tree(tmp_path):
    for fs, base in backends(tmp_path):
        d = os.path.join(base, "dir")
        fs.makedirs(d)
        fs.put_json(os.path.join(d, "a.json"), {})
        fs.put_json(os.path.join(d, "b.json"), {})
        assert sorted(fs.list_names(d)) == ["a.json", "b.json"]
        assert fs.list_names(os.path.join(base, "nope")) == []
        fs.delete_tree(d)
        assert not fs.exists(d)
        fs.delete_tree(d)  # idempotent


def test_object_backend_never_renames():
    """The object-store code path must be implementable on S3: whole-object
    put, copy, delete, list only — no move/rename calls anywhere."""
    src = inspect.getsource(lakefs.ObjectLakeFS)
    assert ".move(" not in src and "os.replace" not in src and "os.rename" not in src


def test_mocks3_replay_has_no_leftover_staging(tmp_path):
    """Full replay on the object backend commits and GCs staging."""
    from dataxray.gen import GenConfig, write_dataset
    from dataxray.pipelines.replay import ReplayConfig, replay
    from dataxray.state.manifest import Lake

    d = str(tmp_path / "data")
    write_dataset(d, GenConfig(n_urls=100, n_events=1_000, n_shards=2, html_mean=16),
                  parallel=False)
    root = f"mocks3://{tmp_path / 'lake'}"
    rep = replay(os.path.join(d, "events"), root,
                 pages_path=os.path.join(d, "pages.parquet"),
                 cfg=ReplayConfig(num_partitions=4))
    assert rep.partitions_committed == 4
    lake = Lake(root)
    assert lake.fs.list_names(os.path.join(lake.base, "_staging")) == []
    assert lake.read_all().num_rows > 0
