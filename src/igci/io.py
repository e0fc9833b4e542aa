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
        raise DataError(f"{path}: {exc}") from None
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


# Parsed tables are kept as .npy files named by a hash of the text they came
# from. Bump _TABLE_FORMAT whenever the parse rules change, so that no table
# parsed under the old rules is read back.
_TABLE_FORMAT = 1
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
    return cache / f"{digest.hexdigest()}.npy"


def _cached_table(entry: Path) -> Optional[np.ndarray]:
    """The table kept in entry, or None when there is none or it is not a
    non-empty C-ordered 2-D float64 array. A hit marks the entry as used."""
    try:
        table = np.load(entry, allow_pickle=False)
    except (OSError, ValueError, EOFError):
        return None
    if table.ndim != 2 or table.dtype != np.float64 or not table.size or not table.flags.c_contiguous:
        return None
    with contextlib.suppress(OSError):
        os.utime(entry)
    return table


def _store_table(entry: Path, path: Path, table: np.ndarray) -> None:
    """Keep the table parsed from path in entry, then remove the least
    recently used entries until the cache fits its cap.

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
                np.save(handle, table, allow_pickle=False)
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
    that is unset): its bytes are hashed (SHA-256), and the table kept under
    that hash in numpy's .npy format is loaded, or the file is parsed and
    its table kept. A first read only notes the file's device, inode, size
    and mtime in a fixed-size table there. Copies stay after their source
    is deleted; once they pass 512 MiB the least recently used go. A file
    that fails to parse leaves no entry, and a cache that cannot be read or
    written is passed over silently: nothing needs it, and deleting it is
    always safe. The returned array is the caller's own.
    """
    path = Path(path)
    cache = _table_cache(path)
    entry = _table_entry(cache, path) if cache else None
    table = _cached_table(entry) if entry else None
    if table is None:
        table = _parse_table(path)
        if entry:
            _store_table(entry, path, table)
    return table


def load_columns(path, cols: Sequence[int]) -> tuple:
    """Read a table and return the chosen columns, in the order given, as
    1-D views of the one parsed table: nothing is copied.

    Raises DataError naming the first column the rows do not have.
    """
    table = load_table(path)
    ncols = table.shape[1]
    for col in cols:
        if not 0 <= col < ncols:
            raise DataError(f"{path}: column {col} not present (rows have {ncols} columns)")
    return tuple(table[:, col] for col in cols)


def load_pair(path, x_col: int = 0, y_col: int = 1) -> SamplePair:
    """Load two columns as a SamplePair.

    Rows with a non-finite value in either chosen column are dropped; a
    single warning reports how many. Raises DataError when a column is
    missing or fewer than 3 usable rows remain.
    """
    x, y = load_columns(path, (x_col, y_col))
    keep = np.isfinite(x)
    keep &= np.isfinite(y)
    dropped = int(keep.size - np.count_nonzero(keep))
    if dropped:
        warnings.warn(f"{path}: dropped {dropped} rows with non-finite values", stacklevel=2)
        x = x[keep]
        y = y[keep]
    if x.size < 3:
        raise DataError(f"{path}: only {x.size} usable rows")
    return SamplePair(x, y)


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
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
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
            raise DataError(f"entry {self.entry_id}: weight must be positive, got {self.weight!r}")


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
        except ValueError as exc:
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


def _tsv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
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
