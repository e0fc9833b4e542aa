"""File formats, lag alignment, and manifest evaluation.

Data files are plain UTF-8 text, with or without a leading byte-order mark:
one row per observation, columns separated by whitespace or commas. Two
rules shape every table: '#' starts a comment that runs to the end of its
line, and a comma-separated line has no empty field before its last value (a
trailing comma is accepted).
Manifests are CSV with columns id, path, x_col, y_col, truth, weight (the
last two optional); paths are resolved relative to the manifest's
directory.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path
from stat import S_ISDIR, S_ISREG
from typing import Optional, Sequence

import numpy as np

from ._fanout import fan_out
from .core import Direction, ReferenceFamily, SamplePair, _unit_scale
from .errors import ConstantInputError, DataError, DomainError, IgciError
from .estimators import EstimatorKind, IgciReport, igci_score

__all__ = [
    "LagAlignment",
    "ManifestEntry",
    "EntryReport",
    "ManifestSummary",
    "load_table",
    "load_columns",
    "load_pair",
    "write_pair",
    "align_lag",
    "load_manifest",
    "evaluate_manifest",
    "format_json_lines",
    "format_tsv",
]


_BOM = "\ufeff"  # UTF-8's optional byte-order mark, as spreadsheet CSV exports write it


def _tokenize(line: str) -> list:
    """Fields of a stripped data line. Trailing commas end it; any other
    empty comma field stays, as '', for float() to reject."""
    return line.rstrip(",").split(",") if "," in line else line.split()


def _read_text(path: Path) -> str:
    """The whole file as UTF-8 text; DataError when unreadable or not UTF-8."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror}") from None  # str(exc) would name the path again
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]  # line breaks as universal newlines count them
        lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise DataError(
            f"{path}:{lineno}: not UTF-8 text (byte {data[exc.start]:#04x} at offset {exc.start})"
        ) from None


def _parse_lines(path: Path, text: str) -> np.ndarray:
    """Line-by-line reader, and the only source of the line-numbered errors.
    A leading byte-order mark is skipped, as np.loadtxt's utf-8-sig skips it."""
    rows = []
    width = None
    for lineno, raw in enumerate(text.removeprefix(_BOM).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = _tokenize(line)
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise DataError(f"{path}:{lineno}: expected {width} columns, found {len(tokens)}")
        try:
            rows.append([float(t) for t in tokens])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


# np.loadtxt opens a path through numpy's DataSource, which decompresses
# these suffixes and, for a missing path, opens the path plus any of them.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def _parse_table(path: Path) -> np.ndarray:
    """The table in a file's text, by np.loadtxt or else the line parser."""
    if path.is_file() and path.suffix not in _COMPRESSED_SUFFIXES:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            for delimiter in (None, ","):
                try:
                    table = np.loadtxt(
                        path, np.float64, comments="#", delimiter=delimiter, ndmin=2, encoding="utf-8-sig"
                    )
                except (OSError, ValueError):  # a bad byte is a UnicodeDecodeError
                    continue
                if table.size:
                    return table
    text = _read_text(path).replace("\r\n", "\n").replace("\r", "\n")  # universal newlines
    return _parse_lines(path, text)


# Parsed tables are kept in files named by a hash of the text they came
# from. An entry is the table's row and column counts, two little-endian
# int64, then its values as little-endian float64, one column after another,
# so it reads as the same numbers on any machine. Bump _TABLE_FORMAT
# whenever the parse rules or the stored layout change, so that no entry
# kept under the old ones is read back.
_TABLE_FORMAT = 3
_SHAPE = struct.Struct("<2q")
_VALUES = np.dtype("<f8")
_TABLE_CACHE_BYTES = 512 << 20  # past this, the least recently used entries go
# A file is hashed and kept only from its second read on, so a file read once
# pays for no hash and no copy. Its first read writes an 8-byte fingerprint of
# its device, inode, size and mtime into one slot of a fixed-size table, the
# file _SEEN beside the entries. Two files that share a slot cost each other a
# parse, never a wrong table: entries are named by the bytes, not the slot.
_SEEN = "seen"
_SEEN_SLOTS = 1 << 14
# Cache directory -> bytes it held at this process's last count. Counting
# stats every entry (0.9 ms for 200 entries, 10 ms for 2000, on a 2-core
# Xeon), so a process counts on its first write and again only once its own
# running total passes the cap. Entries that other processes write meanwhile
# go uncounted until then: concurrent writers can overshoot the cap by that.
_table_cache_bytes: dict = {}


def _table_cache(path: Path) -> Optional[Path]:
    """The cache directory, when path is a regular file that was read before
    with its current size and mtime; None on a first read, for any other
    path, or when the directory cannot be used."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: the XDG default
        base = os.path.join(os.path.expanduser("~"), ".cache")
    cache = Path(base, "igci", "tables")
    try:
        stat = path.stat()
        if not S_ISREG(stat.st_mode):  # a pipe's text can be read only once, by the parser
            return None
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        owner = cache.stat()
        if not S_ISDIR(owner.st_mode) or (hasattr(os, "getuid") and owner.st_uid != os.getuid()):
            return None
        mark = hashlib.sha256(b"%d %d %d %d" % (stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns)).digest()
        slot, fingerprint = int.from_bytes(mark[:8], "little") % _SEEN_SLOTS, mark[8:16]
        fd = os.open(cache / _SEEN, os.O_RDWR | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o600)
        try:
            os.lseek(fd, 8 * slot, os.SEEK_SET)
            if os.read(fd, 8) == fingerprint:
                return cache
            os.lseek(fd, 8 * slot, os.SEEK_SET)
            os.write(fd, fingerprint)
        finally:
            os.close(fd)
    except OSError:
        pass
    return None


def _table_entry(cache: Path, path: Path) -> Optional[Path]:
    """The entry in cache named by the hash of a file's bytes; None when the
    file cannot be read."""
    try:
        with path.open("rb") as handle:
            digest = hashlib.sha256(b"igci table %d\0" % _TABLE_FORMAT)
            for block in iter(lambda: handle.read(1 << 16), b""):
                digest.update(block)
    except OSError:
        return None
    return cache / f"{digest.hexdigest()}.table"


def _open_kept(entry: Path) -> Optional[tuple]:
    """(handle, rows, columns): entry opened and the shape of the table kept
    there. None, and nothing left open, unless both counts are positive and
    the values fill the rest of the file. A usable entry is marked as used."""
    try:
        handle = entry.open("rb")
    except OSError:
        return None
    try:
        rows, cols = _SHAPE.unpack(handle.read(_SHAPE.size))
        if rows > 0 and cols > 0 and _SHAPE.size + 8 * rows * cols == os.fstat(handle.fileno()).st_size:
            with contextlib.suppress(OSError):
                os.utime(entry)
            return handle, rows, cols
    except (OSError, struct.error):  # struct.error: too short to hold the counts
        pass
    handle.close()
    return None


def _kept_columns(kept: tuple, first: int, count: int) -> np.ndarray:
    """count columns of the table _open_kept opened, from column first on,
    read into a fresh column-major array. ValueError when the read is cut
    short: fewer values cannot take the shape."""
    handle, rows, _ = kept
    handle.seek(_SHAPE.size + 8 * rows * first)
    return np.fromfile(handle, _VALUES, rows * count).reshape((rows, count), order="F")


def _store_table(entry: Path, path: Path, table: np.ndarray) -> None:
    """Keep the table parsed from path in entry, column-major, then remove
    the least recently used entries until the cache fits its cap. The
    columns are written one at a time, so at most one is copied.

    np.loadtxt reads the file from its path, not from the bytes that were
    hashed, so the file is hashed again: the table is kept only if the bytes
    before and after the parse are the same, and a rewrite during it (even
    one that keeps the size and mtime) leaves no entry. Parsing the hashed
    bytes from memory instead took 10-20% longer, and for a 1e5-row file the
    list of lines it needs held 15 MB more.
    """
    cache = entry.parent
    if _table_entry(cache, path) != entry:
        return
    tmp = cache / f"{entry.stem}.{os.getpid()}.tmp"
    try:
        try:
            with tmp.open("wb") as handle:
                handle.write(_SHAPE.pack(*table.shape))
                for column in table.T:
                    handle.write(column.astype(_VALUES, copy=False).tobytes())
                size = handle.tell()
            os.replace(tmp, entry)
        finally:
            tmp.unlink(missing_ok=True)
        total = _table_cache_bytes.get(cache)
        if total is not None and total + size <= _TABLE_CACHE_BYTES:
            _table_cache_bytes[cache] = total + size
            return
        with os.scandir(cache) as found:
            files = sorted(
                (f.stat().st_mtime_ns, f.stat().st_size, f.path) for f in found if f.is_file() and f.name != _SEEN
            )
        total = sum(nbytes for _, nbytes, _ in files)
        for _, nbytes, name in files:
            if total <= _TABLE_CACHE_BYTES:
                break
            os.unlink(name)
            total -= nbytes
        _table_cache_bytes[cache] = total
    except OSError:
        return


@contextlib.contextmanager
def _looked_up(path: Path):
    """(entry, kept): the cache entry named by the hash of path's bytes, from
    the file's second read on, and that entry as _open_kept opened it; None
    for each that is missing or unusable. The entry is closed on exit. Enter
    this once per read: a first read notes the file, so a second lookup in
    the same read would take it for a second read and keep its table."""
    cache = _table_cache(path)
    entry = _table_entry(cache, path) if cache else None
    kept = _open_kept(entry) if entry else None
    try:
        yield entry, kept
    finally:
        if kept:
            kept[0].close()


def _read_table(path: Path, entry: Optional[Path], kept: Optional[tuple]) -> np.ndarray:
    """load_table's table, with path's cache entry already looked up and opened."""
    if kept:
        with contextlib.suppress(OSError, ValueError):  # a read cut short: parse instead
            return _kept_columns(kept, 0, kept[2])
    table = _parse_table(path)
    if entry:
        _store_table(entry, path, table)
    return table


def load_table(path) -> np.ndarray:
    """Read a whole numeric table; every data row must have the same width.

    '#' starts a comment that runs to the end of its line. An empty field
    before the last value of a comma-separated line ('1,,2', ',1,2') is a
    DataError naming its line; a trailing comma is accepted.

    np.loadtxt reads a well-formed file from its path in one pass, split at
    whitespace or, failing that, at commas. It accepts a subset of what the
    line parser accepts, with the same values, so a file both attempts
    reject (or find empty) is read as text and handed to the line parser,
    which returns the same table or raises with the offending line number.
    A path that is not a regular file, or has a compression suffix, is read
    as text straight away.

    A regular file read before, with the same size and mtime, goes through
    a cache under $XDG_CACHE_HOME/igci/tables (~/.cache/igci/tables when
    that is unset or relative): its bytes are hashed (SHA-256), and the
    table kept under that hash (its row and column counts, then its values
    column by column) is read, or the file is parsed and its table kept. A
    first read only notes the file's device, inode, size and mtime in one
    slot of the fixed-size file `seen` there. Copies stay after their
    source is edited or deleted; once they pass 512 MiB the least recently
    used go. A file that fails to parse leaves no entry, and a cache that
    cannot be read or written is passed over silently: nothing needs it,
    deleting it is always safe, and XDG_CACHE_HOME=/dev/null turns it off.

    The returned array is the caller's own: np.loadtxt's row-major table
    when the text was parsed, the kept column-major one when it was loaded.
    """
    path = Path(path)
    with _looked_up(path) as (entry, kept):
        return _read_table(path, entry, kept)


def _check_columns(path, ncols: int, cols: Sequence[int]) -> None:
    """DataError naming the first of cols that rows of ncols columns do not have."""
    for col in cols:
        if not 0 <= col < ncols:
            raise DataError(f"{path}: column {col} not present (rows have {ncols} columns)")


def load_columns(path, cols: Sequence[int]) -> tuple:
    """Read a whole table and return the chosen columns, in the order given,
    as 1-D views of that one table: nothing is copied.

    Raises DataError naming the first column the rows do not have.
    """
    table = load_table(path)
    _check_columns(path, table.shape[1], cols)
    return tuple(table[:, col] for col in cols)


def load_pair(path, x_col: int = 0, y_col: int = 1) -> SamplePair:
    """Load two columns as a SamplePair, read as `igci infer` reads its file.

    Rows with a non-finite value in either chosen column are dropped; a
    single warning reports how many. Raises DataError when a column is
    missing or fewer than 3 usable rows remain.
    """
    return SamplePair(*_pair_sides(path, x_col, y_col))


def _pair_sides(path, x_col: int, y_col: int):
    """x's sample, then y's: the one reader of a pair's two columns, behind
    load_pair and `igci infer`, which scores them in place. Each is the
    caller's own and shares memory with no other (y is a copy of x when both
    name one column), so the scoring may overwrite it. The warning points at
    load_pair's caller.

    From a file's third read on, the kept entry is opened once and each
    column is read from it when it is asked for: y's, to check that it is
    finite, then x's, then y's again. So a caller that drops x before it
    asks for y holds one column at a time. On a first or second read, or
    when the entry cannot be used, the columns are views of the parsed
    table. Dropping rows with a non-finite value copies both columns.
    """
    path = Path(path)
    with _looked_up(path) as (entry, kept):
        if kept:
            ncols, column = kept[2], lambda col: _kept_columns(kept, col, 1)[:, 0]
        else:
            table = _read_table(path, entry, None)
            ncols, column = table.shape[1], lambda col: table[:, col]
        _check_columns(path, ncols, (x_col, y_col))
        finite = np.isfinite(column(y_col)).all()
        x, y = column(x_col), None
        if not (finite and np.isfinite(x).all()):
            y = column(y_col)
            keep = np.isfinite(x)
            keep &= np.isfinite(y)
            dropped = int(keep.size - np.count_nonzero(keep))
            warnings.warn(f"{path}: dropped {dropped} rows with non-finite values", stacklevel=3)
            x = x[keep]
            y = y[keep]
        elif x_col == y_col:  # scoring x in place must leave y as read
            y = x.copy()
        if x.size < 3:
            raise DataError(f"{path}: only {x.size} usable rows")
        yield x
        del x  # the caller has reduced x before it asks for y
        yield column(y_col) if y is None else y


def write_pair(path, pair: SamplePair) -> None:
    """Write a pair as two tab-separated columns, 17 significant digits.

    That precision makes the round trip through text bit-exact for float64.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for a, b in zip(pair.x, pair.y):
            handle.write(f"{a:.17g}\t{b:.17g}\n")


@dataclass(frozen=True)
class LagAlignment:
    lag: int
    correlation: float
    overlap_length: int


# Error budget of the FFT pass, relative to each whole series' centred sum
# of squares; it sits far above the rounding of prefix sums and FFTs.
_ALIGN_RTOL = 1e-9


def _score_lag(a: np.ndarray, b: np.ndarray, lag: int) -> Optional[LagAlignment]:
    """np.corrcoef of a[i] against b[i + lag], or None for a constant overlap."""
    start = max(0, -lag)
    stop = min(a.size, b.size - lag)
    seg_a = a[start:stop]
    seg_b = b[start + lag : stop + lag]
    if seg_a.std() == 0.0 or seg_b.std() == 0.0:
        return None
    corr = float(np.corrcoef(seg_a, seg_b)[0, 1])
    return LagAlignment(lag=lag, correlation=corr, overlap_length=stop - start)


def _candidate_lags(a: np.ndarray, b: np.ndarray, max_lag: int) -> np.ndarray:
    """Every lag whose |correlation| may be the largest, from one FFT pass.

    All cross products come from one zero-padded FFT of the centred series,
    each overlap's sums and sums of squares from prefix sums. With every
    quantity off by at most its error budget, a lag is dropped only when
    its |r| is certainly below some other lag's; a lag whose overlap
    variance is within budget of zero is always kept.
    """
    lags = np.arange(-max_lag, max_lag + 1)
    start = np.maximum(0, -lags)
    stop = np.minimum(a.size, b.size - lags)
    n = stop - start
    ca = a - a.mean()
    cb = b - b.mean()
    # Long enough that no product wraps round into a lag within max_lag.
    size = 1 << (max(a.size, b.size) + max_lag).bit_length()
    cross = np.fft.irfft(np.conj(np.fft.rfft(ca, size)) * np.fft.rfft(cb, size), size)[lags]
    sum_a = np.concatenate(([0.0], np.cumsum(ca)))
    sum_b = np.concatenate(([0.0], np.cumsum(cb)))
    sq_a = np.concatenate(([0.0], np.cumsum(ca * ca)))
    sq_b = np.concatenate(([0.0], np.cumsum(cb * cb)))
    s_a = sum_a[stop] - sum_a[start]
    s_b = sum_b[stop + lags] - sum_b[start + lags]
    var_a = sq_a[stop] - sq_a[start] - s_a * s_a / n
    var_b = sq_b[stop + lags] - sq_b[start + lags] - s_b * s_b / n
    cov = np.abs(cross - s_a * s_b / n)
    err_a = _ALIGN_RTOL * sq_a[-1]
    err_b = _ALIGN_RTOL * sq_b[-1]
    # Square roots before products: a product of two sums of squares can overflow.
    err_ab = _ALIGN_RTOL * np.sqrt(sq_a[-1]) * np.sqrt(sq_b[-1])
    sure = (var_a > err_a) & (var_b > err_b)
    low = np.full(lags.size, -np.inf)
    high = np.full(lags.size, np.inf)
    low[sure] = (cov[sure] - err_ab) / (np.sqrt(var_a[sure] + err_a) * np.sqrt(var_b[sure] + err_b))
    high[sure] = (cov[sure] + err_ab) / (np.sqrt(var_a[sure] - err_a) * np.sqrt(var_b[sure] - err_b))
    return lags[high >= low.max()]


def align_lag(a, b, max_lag: int) -> LagAlignment:
    """Find the integer shift of b that best correlates the two series.

    Candidate lags L in [-max_lag, max_lag] compare a[i] against b[i + L];
    a positive result means b lags behind a. The winner maximizes the
    absolute Pearson correlation, with ties broken toward the smallest |L|
    (then the smaller signed L); the reported correlation keeps its sign.
    Both series need at least max_lag + 3 rows, so every overlap has at
    least 3. Lags whose overlap is constant are skipped; if every lag is
    skipped the series cannot be aligned. A non-finite value is a
    DataError: dropping its row would shift the series. The result does not
    depend on the scale of either series: each is divided by the power of
    two just above its largest |value| before the search, where no sum of
    squares or FFT product leaves float64.

    One FFT pass bounds |r| for every lag in O(n log n); only the lags
    that may win are then scored exactly with np.corrcoef.
    """
    a = np.array(a, dtype=np.float64)  # copies, which _unit_scale scales in place
    b = np.array(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise DataError("series must be one-dimensional")
    for name, series in (("a", a), ("b", b)):
        bad = np.flatnonzero(~np.isfinite(series))
        if bad.size:
            raise DataError(f"series {name} has a non-finite value at row {bad[0]} (counting from 0)")
    max_lag = int(max_lag)
    if max_lag < 0:
        raise DomainError(f"max_lag must be nonnegative, got {max_lag}")
    if a.size < max_lag + 3 or b.size < max_lag + 3:
        raise DataError(
            f"series of lengths {a.size} and {b.size} are too short for max_lag {max_lag}"
        )
    a, b = _unit_scale(a), _unit_scale(b)
    best: Optional[LagAlignment] = None
    for lag in sorted(_candidate_lags(a, b, max_lag).tolist(), key=lambda L: (abs(L), L)):
        found = _score_lag(a, b, lag)
        if found is not None and (best is None or abs(found.correlation) > abs(best.correlation)):
            best = found
    if best is None:
        raise ConstantInputError("every candidate overlap is constant; alignment undefined")
    return best


_TRUTH_TOKENS = {
    "x->y": Direction.X_TO_Y,
    "y->x": Direction.Y_TO_X,
    "?": None,
    "unknown": None,
    "": None,
}


@dataclass(frozen=True)
class ManifestEntry:
    entry_id: str
    path: Path
    x_col: int
    y_col: int
    truth: Optional[Direction] = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not (self.weight > 0.0 and math.isfinite(self.weight)):
            raise DataError(f"weight must be positive, got {self.weight!r}")


def load_manifest(path) -> tuple:
    """Parse a manifest CSV into a tuple of ManifestEntry, in file order."""
    path = Path(path)
    entries = []
    handle = io.StringIO(_read_text(path).removeprefix(_BOM), newline="")
    lines = [ln for ln in handle if ln.strip() and not ln.lstrip().startswith("#")]
    for lineno, row in enumerate(csv.reader(lines), start=1):
        row = [field.strip() for field in row]
        if len(row) < 4 or len(row) > 6:
            raise DataError(f"{path}: entry {lineno}: expected 4 to 6 fields, got {len(row)}")
        entry_id, rel_path, x_col, y_col = row[:4]
        truth_token = row[4].lower() if len(row) > 4 else ""
        if truth_token not in _TRUTH_TOKENS:
            raise DataError(f"{path}: entry {lineno}: unknown truth {row[4]!r}")
        try:
            weight = float(row[5]) if len(row) > 5 else 1.0
            entries.append(
                ManifestEntry(
                    entry_id=entry_id,
                    path=(path.parent / rel_path).resolve(),
                    x_col=int(x_col),
                    y_col=int(y_col),
                    truth=_TRUTH_TOKENS[truth_token],
                    weight=weight,
                )
            )
        except (ValueError, DataError) as exc:  # a bad number, or ManifestEntry's weight check
            raise DataError(f"{path}: entry {lineno}: {exc}") from None
    if not entries:
        raise DataError(f"{path}: manifest has no entries")
    return tuple(entries)


@dataclass(frozen=True)
class EntryReport:
    entry: ManifestEntry
    report: Optional[IgciReport]
    error: Optional[str]
    correct: Optional[bool]

    @property
    def decided(self) -> bool:
        return self.report is not None and self.report.direction is not Direction.UNDECIDED


@dataclass(frozen=True)
class ManifestSummary:
    reports: tuple
    decisions_pct: float
    accuracy_pct: Optional[float]


def evaluate_manifest(
    manifest: Sequence[ManifestEntry],
    reference: ReferenceFamily = ReferenceFamily.UNIFORM_UNIT,
    estimator: EstimatorKind = EstimatorKind.ENTROPY_SPACING,
) -> ManifestSummary:
    """Score every manifest entry and summarize weighted performance.

    decisions_pct is the weighted share of entries that produced a
    direction; accuracy_pct is the weighted share of correct calls among
    decided entries with known ground truth (None when no entry qualifies).
    Per-entry failures are recorded, not raised. Entries are loaded and
    scored on forked workers, one per available CPU. fsum keeps both
    summary numbers invariant under entry reordering.
    """
    if not manifest:
        raise DataError("manifest has no entries")

    def report(entry: ManifestEntry) -> EntryReport:
        try:
            pair = load_pair(entry.path, entry.x_col, entry.y_col)
            result = igci_score(pair, reference=reference, estimator=estimator)
        except IgciError as exc:
            return EntryReport(entry=entry, report=None, error=str(exc), correct=None)
        correct: Optional[bool] = None
        if entry.truth is not None and result.direction is not Direction.UNDECIDED:
            correct = result.direction is entry.truth
        return EntryReport(entry=entry, report=result, error=None, correct=correct)

    reports = fan_out(report, manifest)
    total_w = math.fsum(r.entry.weight for r in reports)
    decided_w = math.fsum(r.entry.weight for r in reports if r.decided)
    known_w = math.fsum(r.entry.weight for r in reports if r.correct is not None)
    correct_w = math.fsum(r.entry.weight for r in reports if r.correct)
    decisions_pct = 100.0 * decided_w / total_w
    accuracy_pct = 100.0 * correct_w / known_w if known_w > 0.0 else None
    return ManifestSummary(reports=tuple(reports), decisions_pct=decisions_pct, accuracy_pct=accuracy_pct)


_TSV_ESCAPES = str.maketrans({"\\": "\\\\", "\t": "\\t", "\n": "\\n", "\r": "\\r"})


def _tsv_cell(value) -> str:
    """One TSV cell. A string's backslash, tab, LF and CR are written as the
    escapes \\\\, \\t, \\n and \\r, so no value can break its row."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return value.translate(_TSV_ESCAPES)
    return str(value)


def format_json_lines(records: Sequence[dict]) -> str:
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)


def format_tsv(records: Sequence[dict]) -> str:
    """Tab-separated rendering: a config record becomes a '#' comment line,
    any other record a row; a header of the row's keys comes first, and
    again whenever they differ from the previous row's keys."""
    out = []
    header = None
    for rec in records:
        keys = [k for k in rec if k != "record"]
        if rec.get("record") == "config":
            out.append("# " + " ".join(f"{k}={_tsv_cell(rec[k])}" for k in keys) + "\n")
            continue
        if keys != header:
            header = keys
            out.append("\t".join(header) + "\n")
        out.append("\t".join(_tsv_cell(rec[k]) for k in keys) + "\n")
    return "".join(out)
