"""Filesystem backends for the lake commit protocol.

The reference's hdfswriter commits by renaming temp files into place
(HdfsWriter.java:196,293-326) — a protocol that only works on filesystems
with atomic rename (local disk, HDFS). Object stores (S3/GCS/OSS — the
storage a 100 TB multi-node lake actually lives on) have NO rename: only
whole-object PUT (atomic per object), server-side COPY, DELETE and LIST.

So the lake speaks to storage through this small interface with two
semantic families:

* ``LocalLakeFS`` — rename-capable (local disk; HDFS shares the contract):
  ``finalize`` is an atomic rename, snapshot swap is write-tmp + fsync +
  rename.
* ``ObjectLakeFS`` — put-semantics over any ``pyarrow.fs.FileSystem``:
  ``finalize`` is server-side copy + delete of the staged object (never
  rename; a commit defers the delete to its staging cleanup), snapshot swap is a single-object PUT (atomic on real object
  stores: readers see the old or the new snapshot, never a torn one).
  Directories are virtual (``makedirs`` only materializes them where the
  underlying fs needs it).

Why the protocol stays exactly-once without rename: staged files have uuid
names (retries collide on nothing), the snapshot PUT is the single commit
point, and the ``(partition, txn_hi)`` label is monotonic — a replayed
commit is recognized by label BEFORE any write, so last-writer-wins PUT
visibility is sufficient under the lake's single-writer-per-partition
design (StarRocks label pattern, StarRocksWriterManager.java:52).

Root scheme dispatch (``resolve``):
    /path/to/lake          → LocalLakeFS
    file:///path           → LocalLakeFS
    mocks3:///path         → ObjectLakeFS over pyarrow LocalFileSystem —
                             the in-sandbox object-store stand-in: same
                             code path as S3, local bytes (no rename ever
                             issued; enforced by construction), and S3's
                             namespace: a directory is a prefix, with no
                             mtime, that exists while an object lies
                             under it (MockS3Namespace)
    s3://bucket/prefix     → ObjectLakeFS over pyarrow S3FileSystem
                             (production; needs credentials/network)
"""

from __future__ import annotations

import json
import os
import shutil
import uuid

import pyarrow as pa
import pyarrow.parquet as pq
from pyarrow.fs import FileInfo, FileSystemHandler, FileType


def _read_file(path: str, columns: list[str] | None, filesystem,
               row_groups=None) -> pa.Table:
    """One Parquet file, opened as a ``pq.ParquetFile`` and closed after the
    read: ``columns`` (all when None) of ``row_groups`` (all when None),
    skipping the columns the file lacks (an additively evolved lake's older
    files predate its newer columns). No dataset discovery or expression
    planning, which ``pq.read_table`` adds per call."""
    with pq.ParquetFile(path, filesystem=filesystem) as f:
        if columns is not None:
            have = set(f.schema_arrow.names)
            columns = [c for c in columns if c in have]
        if row_groups is not None:
            return f.read_row_groups(row_groups, columns=columns)
        return f.read(columns=columns)


def _write_file(table: pa.Table, path: str, compression: str, filesystem,
                row_groups: list[int] | None) -> None:
    """``table`` as one Parquet file: with ``row_groups`` (row counts that
    sum to its length) one row group of each size, in order."""
    if row_groups is None:
        pq.write_table(table, path, filesystem=filesystem,
                       compression=compression)
        return
    with pq.ParquetWriter(path, table.schema, filesystem=filesystem,
                          compression=compression) as w:
        off = 0
        for n in row_groups:
            w.write_table(table.slice(off, n), row_group_size=n)
            off += n


def footer_bytes(fs, paths: list[str], columns: list[str]) -> int:
    """Compressed bytes of ``columns`` in ``paths``, from the Parquet footers
    alone: the input a read of those columns will decode."""
    total = 0
    for path in paths:
        md = pq.read_metadata(path, filesystem=fs.pafs)
        for i in range(md.num_row_groups):
            rg = md.row_group(i)
            for j in range(rg.num_columns):
                c = rg.column(j)
                if c.path_in_schema in columns:
                    total += c.total_compressed_size
    return total


class LocalLakeFS:
    """Rename-capable backend: plain os/pyarrow calls, atomic os.replace."""

    scheme = "file"

    def __init__(self, base: str):
        self.base = base
        self.pafs = None  # ray.data / pq default local handling

    # --- namespace ---
    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def isdir(self, path: str) -> bool:
        return os.path.isdir(path)

    def makedirs(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)

    def list_names(self, path: str) -> list[str]:
        return os.listdir(path) if os.path.isdir(path) else []

    def mtime(self, path: str) -> float:
        return os.path.getmtime(path)

    def size(self, path: str) -> int:
        return os.path.getsize(path)

    # --- objects ---
    def read_json(self, path: str) -> dict:
        with open(path) as f:
            return json.load(f)

    def put_json(self, path: str, obj: dict) -> None:
        """Atomic visibility via write-tmp + fsync + rename."""
        tmp = f"{path}.tmp-{uuid.uuid4().hex}"
        with open(tmp, "w") as f:
            json.dump(obj, f, indent=1)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)

    def write_parquet(self, table: pa.Table, path: str, compression: str,
                      row_groups: list[int] | None = None) -> None:
        _write_file(table, path, compression, None, row_groups)

    def read_parquet(self, path: str, columns: list[str] | None = None,
                     row_groups=None) -> pa.Table:
        return _read_file(path, columns, None, row_groups)

    def finalize(self, src: str, dest: str, keep_src: bool = False) -> None:
        """Atomic rename. ``keep_src`` (see ObjectLakeFS.finalize) asks
        nothing more here: the source's directory stays behind anyway."""
        os.replace(src, dest)

    def delete_file(self, path: str) -> None:
        if os.path.exists(path):
            os.remove(path)

    def delete_tree(self, path: str) -> None:
        shutil.rmtree(path, ignore_errors=True)


class ObjectLakeFS:
    """Put-semantics backend over a ``pyarrow.fs.FileSystem``.

    Uses ONLY operations object stores offer: put (open_output_stream of a
    whole object), copy_file (server-side copy), delete, list. Rename is
    never called — this class is the proof the commit protocol holds on
    S3-class storage; ``mocks3://`` runs it against local bytes so the
    whole crash/resume suite exercises this exact code path in-sandbox.
    """

    def __init__(self, pafs, base: str, scheme: str = "mocks3"):
        self.pafs = pafs
        self.base = base
        self.scheme = scheme

    # --- namespace ---
    def _info(self, path: str):
        from pyarrow.fs import FileType

        info = self.pafs.get_file_info(path)
        return None if info.type == FileType.NotFound else info

    def exists(self, path: str) -> bool:
        return self._info(path) is not None

    def isdir(self, path: str) -> bool:
        from pyarrow.fs import FileType

        info = self._info(path)
        return info is not None and info.type == FileType.Directory

    def makedirs(self, path: str) -> None:
        # object stores have no real directories; create where the backing
        # fs wants one (local emulation), harmless no-op-ish on S3
        self.pafs.create_dir(path, recursive=True)

    def list_names(self, path: str) -> list[str]:
        from pyarrow.fs import FileSelector

        if not self.isdir(path):
            return []
        infos = self.pafs.get_file_info(FileSelector(path, recursive=False))
        return [os.path.basename(i.path.rstrip("/")) for i in infos]

    def mtime(self, path: str) -> float:
        """Modification time, 0.0 when unknown. A directory is a prefix
        without one of its own: it takes its newest object's."""
        from pyarrow.fs import FileSelector

        info = self._info(path)
        if info is None:
            return 0.0
        infos = [info]
        if info.mtime is None and info.type == FileType.Directory:
            infos = self.pafs.get_file_info(FileSelector(path, recursive=True))
        return max((i.mtime.timestamp() for i in infos if i.mtime is not None),
                   default=0.0)

    def size(self, path: str) -> int:
        info = self._info(path)
        return int(info.size) if info is not None and info.size is not None else 0

    # --- objects ---
    def read_json(self, path: str) -> dict:
        with self.pafs.open_input_stream(path) as f:
            return json.loads(f.read().decode())

    def put_json(self, path: str, obj: dict) -> None:
        # single-object PUT — atomic on real object stores (readers never
        # see a torn object); label dedup happens before this call, so
        # last-writer-wins visibility is safe for the single-writer lake
        payload = json.dumps(obj, indent=1).encode()
        self.pafs.create_dir(os.path.dirname(path), recursive=True)
        with self.pafs.open_output_stream(path) as f:
            f.write(payload)

    def write_parquet(self, table: pa.Table, path: str, compression: str,
                      row_groups: list[int] | None = None) -> None:
        _write_file(table, path, compression, self.pafs, row_groups)

    def read_parquet(self, path: str, columns: list[str] | None = None,
                     row_groups=None) -> pa.Table:
        return _read_file(path, columns, self.pafs, row_groups)

    def finalize(self, src: str, dest: str, keep_src: bool = False) -> None:
        """Staged object → final key: server-side copy + delete. NO rename.
        ``keep_src`` leaves the delete to the caller's later delete_tree of
        the staging prefix: until then the prefix stays visible (a prefix
        without objects does not exist), so a crash after the last copy
        still leaves a trace for sweep_staging."""
        self.pafs.copy_file(src, dest)
        if not keep_src:
            self.pafs.delete_file(src)

    def delete_file(self, path: str) -> None:
        if self.exists(path):
            self.pafs.delete_file(path)

    def delete_tree(self, path: str) -> None:
        try:
            self.pafs.delete_dir(path)
        except (FileNotFoundError, OSError):
            pass


class MockS3Namespace(FileSystemHandler):
    """The ``mocks3://`` filesystem: local files under S3's namespace rules.
    A directory is a prefix: it has no mtime, and it exists (and is
    listed) only while some object lies under it — deleting a prefix's
    last object makes it vanish, as on S3, even though the local directory
    stays; writing an object needs no directory first. Everything else is
    the local filesystem's."""

    def __init__(self):
        from pyarrow.fs import LocalFileSystem

        self.fs = LocalFileSystem()

    def __eq__(self, other) -> bool:
        return isinstance(other, MockS3Namespace)

    def __reduce__(self):
        return MockS3Namespace, ()

    def _prefix(self, info: FileInfo) -> FileInfo:
        if info.type != FileType.Directory:
            return info
        for _, _, names in os.walk(info.path):
            if names:
                return FileInfo(info.path, FileType.Directory)
        return FileInfo(info.path, FileType.NotFound)

    def get_type_name(self) -> str:
        return "mocks3"

    def equals(self, other) -> bool:
        return self == other.handler if hasattr(other, "handler") else False

    def normalize_path(self, path: str) -> str:
        return self.fs.normalize_path(path)

    def get_file_info(self, paths: list[str]) -> list[FileInfo]:
        return [self._prefix(i) for i in self.fs.get_file_info(paths)]

    def get_file_info_selector(self, selector) -> list[FileInfo]:
        infos = [self._prefix(i) for i in self.fs.get_file_info(selector)]
        return [i for i in infos if i.type != FileType.NotFound]

    def create_dir(self, path: str, recursive: bool) -> None:
        self.fs.create_dir(path, recursive=recursive)

    def delete_dir(self, path: str) -> None:
        self.fs.delete_dir(path)

    def delete_dir_contents(self, path: str, missing_dir_ok: bool = False) -> None:
        self.fs.delete_dir_contents(path, missing_dir_ok=missing_dir_ok)

    def delete_root_dir_contents(self) -> None:
        raise OSError("mocks3: refusing to delete the root's contents")

    def delete_file(self, path: str) -> None:
        self.fs.delete_file(path)

    def move(self, src: str, dest: str) -> None:
        raise OSError("mocks3: an object store has no rename")

    def copy_file(self, src: str, dest: str) -> None:
        self.fs.create_dir(os.path.dirname(dest), recursive=True)
        self.fs.copy_file(src, dest)

    def open_input_stream(self, path: str):
        return self.fs.open_input_stream(path)

    def open_input_file(self, path: str):
        return self.fs.open_input_file(path)

    def open_output_stream(self, path: str, metadata=None):
        self.fs.create_dir(os.path.dirname(path), recursive=True)
        return self.fs.open_output_stream(path, metadata=metadata)

    def open_append_stream(self, path: str, metadata=None):
        return self.fs.open_append_stream(path, metadata=metadata)


def s3_options() -> dict:
    """S3FileSystem options from the environment. Credentials and the
    default region come from the standard AWS_* variables (pyarrow reads
    them natively); these add the knobs pyarrow does NOT read itself —
    endpoint override (MinIO/localstack/on-prem gateways) and an explicit
    region pin. Workers resolve the same root string with the same env, so
    the options travel to every node without serializing a client."""
    import os as _os

    opts: dict = {}
    if _os.environ.get("DATAXRAY_S3_ENDPOINT"):
        opts["endpoint_override"] = _os.environ["DATAXRAY_S3_ENDPOINT"]
    if _os.environ.get("DATAXRAY_S3_REGION"):
        opts["region"] = _os.environ["DATAXRAY_S3_REGION"]
    if _os.environ.get("DATAXRAY_S3_ALLOW_HTTP"):
        opts["scheme"] = "http"
    return opts


def resolve(root: str) -> tuple[LocalLakeFS | ObjectLakeFS, str]:
    """Parse a lake root into (backend, base_path). Workers reconstruct the
    backend from the same root string (Lake(root) inside merge tasks)."""
    if root.startswith("mocks3://"):
        from pyarrow.fs import PyFileSystem

        base = root[len("mocks3://"):]
        return ObjectLakeFS(PyFileSystem(MockS3Namespace()), base,
                            scheme="mocks3"), base
    if root.startswith("s3://"):
        from pyarrow.fs import S3FileSystem

        base = root[len("s3://"):]
        return ObjectLakeFS(S3FileSystem(**s3_options()), base, scheme="s3"), base
    if root.startswith("file://"):
        base = root[len("file://"):]
        return LocalLakeFS(base), base
    return LocalLakeFS(root), root
