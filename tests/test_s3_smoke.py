"""Real-S3 smoke for ObjectLakeFS (env-gated; skips cleanly in-sandbox).

The mocks3:// backend proves the no-rename commit PROTOCOL; this suite
proves the s3:// CLIENT wiring against a real endpoint when one is
available. Enable with:

    DATAXRAY_S3_TEST_ROOT=s3://bucket/ci-prefix  (plus AWS_* credentials,
    and optionally DATAXRAY_S3_ENDPOINT / DATAXRAY_S3_REGION /
    DATAXRAY_S3_ALLOW_HTTP for MinIO-style gateways)

The constructor-path tests below always run — they pin the env→options
plumbing so the production wiring can't rot even without credentials.
"""

import os
import uuid

import pyarrow as pa
import pytest

from dataxray.state import lakefs
from dataxray.state.manifest import Lake

S3_ROOT = os.environ.get("DATAXRAY_S3_TEST_ROOT")


def test_s3_resolve_constructs_offline():
    fs, base = lakefs.resolve("s3://some-bucket/prefix")
    assert type(fs).__name__ == "ObjectLakeFS"
    assert fs.scheme == "s3"
    assert base == "some-bucket/prefix"
    assert type(fs.pafs).__name__ == "S3FileSystem"


def test_s3_env_options_plumbed(monkeypatch):
    monkeypatch.setenv("DATAXRAY_S3_ENDPOINT", "http://127.0.0.1:9000")
    monkeypatch.setenv("DATAXRAY_S3_REGION", "eu-west-1")
    opts = lakefs.s3_options()
    assert opts == {"endpoint_override": "http://127.0.0.1:9000",
                    "region": "eu-west-1"}
    fs, _ = lakefs.resolve("s3://b/p")
    assert fs.pafs.region == "eu-west-1"
    monkeypatch.setenv("DATAXRAY_S3_ALLOW_HTTP", "1")
    assert lakefs.s3_options()["scheme"] == "http"


@pytest.mark.skipif(
    not S3_ROOT,
    reason="set DATAXRAY_S3_TEST_ROOT=s3://bucket/prefix (+ AWS credentials) "
           "to run the live-S3 smoke",
)
def test_s3_lake_commit_cycle():
    """Full no-rename commit cycle against the real object store: init,
    staged write, copy+delete finalize, manifest PUT, read-back, replayed
    label skip, cleanup."""
    root = S3_ROOT.rstrip("/") + f"/smoke-{uuid.uuid4().hex[:8]}"
    table = pa.table({
        "url": ["a", "b"],
        "txn_id": pa.array([1, 1], pa.int64()),
        "seq": pa.array([0, 0], pa.int64()),
    })
    lake = Lake(root)
    lake.init(1, table.schema)
    assert lake.exists()
    meta = lake.write_staged("run1", 0, table)
    status = lake.commit([{**meta, "txn_hi": 1, "mode": "rewrite"}], "run1")
    assert status == ["committed"]
    lake.cleanup_staging("run1")
    got = lake.read_all()
    assert sorted(got["url"].to_pylist()) == ["a", "b"]
    # replayed label is recognized and skipped (exactly-once on real S3)
    meta2 = lake.write_staged("run2", 0, table)
    assert lake.commit([{**meta2, "txn_hi": 1, "mode": "rewrite"}],
                       "run2") == ["skipped"]
    lake.cleanup_staging("run2")
    # cleanup the smoke prefix
    lake.fs.delete_tree(lake.base)
