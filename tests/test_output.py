"""CSV output is byte-identical to a per-cell `csv.writer` reference.

The reference below is the original writer: each cell formatted in Python
as `%.17g` of `float(cell)` and written by `csv.writer`, with the row
lists built cell by cell from the computation results.  Each CLI run's
results are captured on the way to the writer, turned into those
reference rows, and the files must match byte for byte.
"""
import csv
import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from birthdeath import cli
from birthdeath.cli import main, write_csv
from birthdeath.hierarchy import CorrelationVector
from birthdeath.space import Grid, Torus


def reference_write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{float(c):.17g}" for c in row])


def reference_correlation_tables(grid, times, snapshots):
    k1_rows = []
    k2_rows = []
    for t, snap in zip(times, snapshots):
        for i in range(grid.node_count):
            k1_rows.append([t] + list(grid.nodes[i]) + [snap.k1[i]])
        if snap.k2 is None:
            continue
        if snap.homogeneous:
            for u in range(grid.node_count):
                k2_rows.append([t, u, float(grid.torus.distance(grid.nodes[u], grid.nodes[0])),
                                snap.k2[u]])
        else:
            for i in range(grid.node_count):
                for j in range(grid.node_count):
                    k2_rows.append([t, i, j, snap.k2[i, j]])
    tables = {"k1.csv": (["time"] + [f"x{i}" for i in range(grid.torus.dim)] + ["k1"],
                         k1_rows)}
    if snapshots[0].k2 is not None:
        header = ["time", "offset", "separation", "k2"] if snapshots[0].homogeneous \
            else ["time", "i", "j", "k2"]
        tables["k2.csv"] = (header, k2_rows)
    return tables


@pytest.fixture
def capture(monkeypatch):
    """Record the return value of the named computation the CLI calls."""
    results = {}

    def install(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            results[name] = original(*args, **kwargs)
            return results[name]
        monkeypatch.setattr(cli, name, wrapper)
        return results
    return install


def run_cli(tmp_path, cfg, *command):
    cfg = dict(cfg, output={"directory": str(tmp_path / "out")})
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["--config", str(path)] + list(command)) == 0
    return tmp_path / "out"


def assert_matches_reference(out_dir, tables, tmp_path):
    ref_dir = tmp_path / "ref"
    ref_dir.mkdir()
    for name, (header, rows) in tables.items():
        reference_write_csv(ref_dir / name, header, rows)
        assert (out_dir / name).read_bytes() == (ref_dir / name).read_bytes(), name
    assert sorted(p.name for p in out_dir.glob("*.csv")) == sorted(tables)


def glauber(d=1, M=16):
    return {"model": {"name": "glauber", "s": 0.5, "z": 0.3,
                      "phi": {"shape": "box", "height": 0.4, "radius": 0.1}},
            "space": {"d": d, "L": 1.0, "M": M},
            "weights": {"C": 1.5}}


def detailed_balance(M=16, L=1.0):
    return {"model": {"name": "bdlp_modified", "m": 1.0, "kappa_minus": 0.15,
                      "kappa_plus": 0.075, "kappa": 0.5,
                      "a_minus": {"shape": "box", "radius": 0.1},
                      "a_plus": {"shape": "box", "radius": 0.1}},
            "space": {"d": 1, "L": L, "M": M},
            "weights": {"C": 2.5}}


EVOLVE_CASES = {
    "dense": (glauber(), {"initial_density": (0.26 + 0.04 * np.cos(
        2 * np.pi * np.arange(16) / 16)).tolist()}),
    "homogeneous-d1": (glauber(), {"initial_density": 0.2}),
    "homogeneous-d2": (glauber(d=2, M=8), {"initial_density": 0.2}),
    "order-1": (dict(glauber(), weights={"C": 1.5, "N_max": 1}),
                {"initial_density": 0.2}),
}


@pytest.mark.parametrize("case", sorted(EVOLVE_CASES))
def test_hierarchy_evolve_bytes(case, tmp_path, capture):
    cfg, run = EVOLVE_CASES[case]
    cfg = dict(cfg, run=dict(run, T=0.2, dt=0.05, snapshot_times=[0.1, 0.2]))
    results = capture("evolve")
    out_dir = run_cli(tmp_path, cfg, "hierarchy", "evolve")
    result = results["evolve"]
    assert result.snapshots[0].homogeneous == (case != "dense")
    _, grid = cli.build_space(cfg)
    tables = reference_correlation_tables(grid, result.times, result.snapshots)
    assert ("k2.csv" in tables) == (case != "order-1")
    assert_matches_reference(out_dir, tables, tmp_path)


def test_hierarchy_stationary_bytes(tmp_path, capture):
    cfg = dict(detailed_balance(), run={"tol": 1e-10})
    results = capture("stationary_solve")
    out_dir = run_cli(tmp_path, cfg, "hierarchy", "stationary")
    _, grid = cli.build_space(cfg)
    tables = reference_correlation_tables(grid, [0.0], [results["stationary_solve"].k_inv])
    assert_matches_reference(out_dir, tables, tmp_path)


def test_simulate_bytes(tmp_path, capture):
    cfg = dict(detailed_balance(L=5.0), run={
        "T": 1.0, "replicas": 3, "seed": 9, "snapshot_times": [0.5, 1.0],
        "initial": {"type": "poisson", "intensity": 0.5}})
    results = capture("run_ensemble")
    out_dir = run_cli(tmp_path, cfg, "simulate")
    result = results["run_ensemble"]
    torus, grid = cli.build_space(cfg)
    corr = result.correlations
    centers = grid.nodes + grid.spacing / 2.0
    tables = {
        "k1.csv": ([f"bin_center_{i}" for i in range(torus.dim)] + ["estimate", "std_error"],
                   [list(centers[i]) + [corr.k1[i], corr.k1_se[i]]
                    for i in range(grid.node_count)]),
        "k2.csv": (["bin_center", "estimate", "std_error"],
                   [[corr.k2_centers[i], corr.k2[i], corr.k2_se[i]]
                    for i in range(len(corr.k2_centers))]),
        "population.csv": (["time", "mean", "std_error"],
                           [[result.snapshot_times[i], result.population_mean[i],
                             result.population_se[i]]
                            for i in range(len(result.snapshot_times))]),
    }
    assert_matches_reference(out_dir, tables, tmp_path)


def test_simulate_pair_histogram_bytes_pinned(tmp_path):
    # sha256 of the k2.csv that the full (n, n, d) distance tensor wrote for
    # this configuration and seed; the i < j pair distances must reproduce it.
    cfg = detailed_balance(M=8, L=5.0)
    cfg["space"]["d"] = 2
    cfg["run"] = {"T": 1.0, "replicas": 3, "seed": 9, "snapshot_times": [0.5, 1.0],
                  "initial": {"type": "poisson", "intensity": 2.0}}
    out_dir = run_cli(tmp_path, cfg, "simulate")
    digest = hashlib.sha256((out_dir / "k2.csv").read_bytes()).hexdigest()
    assert digest == "106735d6a9a08c3349a48ce2f5dbf5fe9646a9e425bd682e8e5f2c04ef17aa71"


def test_vlasov_bytes(tmp_path, capture):
    cfg = dict(glauber(), run={"T": 0.5, "dt": 0.05, "initial_density": 0.25,
                               "snapshot_times": [0.25, 0.5]})
    results = capture("integrate_vlasov")
    out_dir = run_cli(tmp_path, cfg, "vlasov")
    result = results["integrate_vlasov"]
    _, grid = cli.build_space(cfg)
    rows = [[t] + list(grid.nodes[i]) + [f.rho[i]]
            for t, f in zip(result.times, result.fields) for i in range(grid.node_count)]
    assert_matches_reference(out_dir, {"rho.csv": (["time", "x0", "rho"], rows)}, tmp_path)


def test_scale_compare_bytes(tmp_path, capture):
    cfg = dict(glauber(), run={"T": 0.2, "dt": 0.05, "initial_density": 0.25,
                               "eps_list": [1, 0.3], "snapshot_times": [0.1, 0.2]})
    results = capture("scaling_compare")
    out_dir = run_cli(tmp_path, cfg, "scale-compare")
    rows = list(results["scaling_compare"].rows())
    assert (out_dir / "errors.csv").read_text().splitlines()[1].startswith("1,")
    assert_matches_reference(out_dir, {"errors.csv": (["eps", "time", "error"], rows)},
                             tmp_path)


def nan_payloads():
    """NaNs with either sign bit and three payloads, each repeated."""
    bits = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0xFFF4000000000ABC], dtype=np.uint64)
    return np.tile(bits.view(float)[:, None], (40, 3))


def repeats_across_blocks():
    """A column cycling through 5 values, a distinct column and a constant one,
    over block boundaries."""
    n = 3 * cli._CSV_BLOCK_ROWS + 17
    return np.column_stack([(np.arange(n) % 5) * 0.1,
                            np.random.default_rng(4).standard_normal(n),
                            np.full(n, 1.0 / 3.0)])


def whole_numbers(*replaced):
    """Columns of the whole numbers 0..9 thirty times over, the k-th with
    its entry 13 (a 3) replaced by replaced[k]."""
    columns = np.tile(np.arange(10.0), (len(replaced), 30))
    columns[:, 13] = replaced
    return columns.T


def one_beyond(n):
    """The whole numbers 0..n three times over, then n + 1."""
    return np.concatenate([np.tile(np.arange(n + 1.0), 3), [n + 1.0]])[:, None]


def distinct_beyond_a_chunk():
    """A column repeating more distinct values than one formatting chunk holds."""
    m = 2 * cli._CSV_BLOCK_ROWS + 100
    return (np.arange(3 * m) % m / 7.0)[:, None]


# value columns of whole numbers, with entries (-0.0, NaN, inf, 0.5, values
# beyond 2^53, negatives) that a shortcut for integers would get wrong
WHOLE_NUMBER_CASES = {
    "whole-numbers-with-negative-zero": whole_numbers(-0.0),
    "large-whole-numbers": np.tile([[2.0 ** 53, 1e17, 1e17 + 2.0 ** 14]], (40, 1)),
    "negative-whole-numbers": np.tile(np.arange(-5.0, 5.0), 30)[:, None],
    "whole-numbers-with-nan-inf-half": whole_numbers(np.nan, np.inf, 0.5),
}

# table -> which columns the writer formats once per distinct value
WRITER_CASES = {
    "signed-zeros": (np.tile([[0.0, -0.0, 2.5], [-0.0, 0.0, -0.0]], (60, 1)),
                     [True, True, True]),
    "nan-payloads": (nan_payloads(), [True, True, True]),
    "all-distinct": (np.arange(3.0 * (2 * cli._CSV_BLOCK_ROWS + 5)).reshape(-1, 3) / 7.0,
                     [False, False, False]),
    "repeats-across-blocks": (repeats_across_blocks(), [True, False, True]),
    "one-row": ([[0.1, -0.0, 7.0]], [False, False, False]),
    "one-column": (np.repeat([[0.25], [1e-300], [-3.0]], 40, axis=0), [True]),
}


@pytest.mark.parametrize("rows", [
    [[float("nan"), float("inf"), -float("inf")], [-0.0, 1e-300, -1e-300],
     [3, -7, 2 ** 60], [0.1, 1.0 / 3.0, 5e-324]],
    np.arange(12, dtype=float).reshape(4, 3) / 7.0,
    np.arange(8).reshape(4, 2),
    np.random.default_rng(3).standard_normal((3 * cli._CSV_BLOCK_ROWS + 17, 4)),
    [],
    np.zeros((0, 3)),
    np.zeros((3, 0)),
] + [rows for rows, _ in WRITER_CASES.values()] + list(WHOLE_NUMBER_CASES.values()) + [
    one_beyond(40), distinct_beyond_a_chunk()],
    ids=["special-values", "float-array", "int-array", "across-blocks", "empty-list",
         "empty-array", "no-columns"] + list(WRITER_CASES) + list(WHOLE_NUMBER_CASES) + [
        "zero-to-n-then-n-plus-1", "reused-beyond-a-chunk"])
def test_write_csv_matches_reference(rows, tmp_path):
    header = ["a", "b", "c"]
    write_csv(tmp_path / "new.csv", header, rows)
    reference_write_csv(tmp_path / "ref.csv", header, rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("case", list(WRITER_CASES))
def test_write_csv_formats_repeated_columns_once(case, monkeypatch):
    """A value column with few distinct values has each formatted once, when
    its texts are made; any other column is formatted a slice at a time."""
    formatted = []
    texts = cli._texts
    monkeypatch.setattr(cli, "_texts", lambda values, end: formatted.append(len(values))
                        or texts(values, end))
    table = np.asarray(WRITER_CASES[case][0], dtype=float)
    for column, reused in zip(table.T, WRITER_CASES[case][1]):
        formatted.clear()
        cells = cli._value_texts(column, "")
        distinct = len(np.unique(column.view(np.int64)))
        assert formatted == ([distinct] if reused else [])
        assert cells(0, len(column)) == [f"{v:.17g}" for v in column.tolist()]
        assert cells(1, 3) == [f"{v:.17g}" for v in column[1:3].tolist()]
        assert formatted == ([distinct] if reused else [len(column), len(column[1:3])])


def special_axis():
    """-0.0 and 0.0, both infinities and NaNs with either sign and two payloads."""
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001],
                    dtype=np.uint64).view(float)
    return np.concatenate([[0.0, -0.0, np.inf, -np.inf], nans])


# (axes, value columns): the product of the axes in C order, then the values
AXES_CASES = {
    "special-axes": ([special_axis(), [2.0, -0.0], special_axis()[::-1]],
                     np.tile([0.25, -0.0, np.nan], 7 * 2 * 7 // 3 + 1)[:98]),
    "two-column-axis": ([[0.0, 0.1, 0.2], np.column_stack([np.arange(5.0), np.arange(5) / 3])],
                        np.arange(15.0).reshape(15, 1) / 7),
    "two-value-columns": ([[0.5, 1.5]], [[1.0, -2.0], [1.0, 1.0 / 3.0]]),
    "one-row-axes": ([[0.5], [3.0], [-0.0]], [[1.0, 2.0]]),
    "last-axis-across-blocks": ([[0.0, 1.0], np.arange(cli._CSV_BLOCK_ROWS + 5.0)],
                                (np.arange(2 * (cli._CSV_BLOCK_ROWS + 5)) % 7) * 0.1),
    "dense-k2": ([[0.0, 0.05], np.arange(16), np.arange(16)],
                 np.tile(np.random.default_rng(5).random(16)[Grid(Torus(1, 1.0), 16).offset_index]
                         .ravel(), 2)),
    "zero-rows": ([[0.1, 0.2], []], np.zeros(0)),
    "zero-rows-first-axis": ([[], [1.0, 2.0]], np.zeros((0, 2))),
    "one-empty-axis": ([[]], []),
}


@pytest.mark.parametrize("case", list(AXES_CASES))
def test_write_csv_over_axes_matches_reference(case, tmp_path):
    def cells(x):   # a list per entry; a 1-D x has one cell per entry
        x = np.asarray(x, dtype=float)
        return (x[:, None] if x.ndim == 1 else x).tolist()

    axes, values = AXES_CASES[case]
    rows = [sum(combo, []) + value
            for combo, value in zip(itertools.product(*map(cells, axes)), cells(values))]
    assert len(rows) == len(values)
    write_csv(tmp_path / "new.csv", ["a", "b"], values, axes)
    reference_write_csv(tmp_path / "ref.csv", ["a", "b"], rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_csv_rejects_rows_that_do_not_fill_the_axes(tmp_path):
    with pytest.raises(ValueError, match="5 rows for axes of"):
        write_csv(tmp_path / "x.csv", ["a", "b", "c"], np.zeros(5), [[0.0, 1.0], [1.0, 2.0]])


def test_axes_are_formatted_once_and_never_sorted(tmp_path, monkeypatch):
    """The time and node index columns of a dense k2.csv are axes: each entry
    is formatted once, and only the k2 values go through `_patterns`."""
    n, times = 16, [0.0, 0.1, 0.2]
    sorted_lengths, formatted = [], []
    patterns, texts = cli._patterns, cli._texts
    monkeypatch.setattr(cli, "_patterns", lambda bits, limit: sorted_lengths.append(len(bits))
                        or patterns(bits, limit))
    monkeypatch.setattr(cli, "_texts", lambda values, end: formatted.append(len(values))
                        or texts(values, end))
    k2 = np.arange(3 * n * n) / 7.0
    write_csv(tmp_path / "k2.csv", ["time", "i", "j", "k2"], k2, [times, np.arange(n), np.arange(n)])
    assert sorted_lengths == [len(k2)]
    assert formatted[:3] == [len(times), n, n]
    assert sum(formatted[3:]) == len(k2)   # all distinct: formatted cell by cell
    rows = [[t, i, j, v] for (t, i, j), v in zip(itertools.product(times, range(n), range(n)), k2)]
    reference_write_csv(tmp_path / "ref.csv", ["time", "i", "j", "k2"], rows)
    assert (tmp_path / "k2.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_half_distinct_column_is_never_argsorted(tmp_path, monkeypatch):
    """A symmetric table is about half distinct, above the reuse limit: a
    sort counts its values, no argsort orders them, and every cell is
    formatted.  A column with a quarter distinct still reuses texts."""
    a = np.random.default_rng(7).random((128, 128))
    symmetric = (a + a.T).ravel()
    quarter = np.repeat(np.arange(len(symmetric) // 4) / 7.0, 4)
    argsorted, argsort = [], np.argsort
    monkeypatch.setattr(np, "argsort", lambda x, *args, **kw: argsorted.append(len(x))
                        or argsort(x, *args, **kw))
    limit = int(cli._CSV_REUSE_MAX_SHARE * len(symmetric))
    assert cli._patterns(symmetric.view(np.int64), limit) is None
    write_csv(tmp_path / "k2.csv", ["i", "j", "k2"], symmetric, [np.arange(128), np.arange(128)])
    assert argsorted == []
    rows = [[i, j, v] for (i, j), v in zip(itertools.product(range(128), range(128)), symmetric)]
    reference_write_csv(tmp_path / "ref.csv", ["i", "j", "k2"], rows)
    assert (tmp_path / "k2.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    patterns, inverse = cli._patterns(quarter.view(np.int64), limit)
    assert argsorted == [len(quarter)]
    assert np.array_equal(patterns.view(float)[inverse], quarter)


def test_dense_k2_csv_peak_memory(tmp_path):
    """Writing a dense d = 2, M = 32 k2.csv of two snapshots (2^21 lines)
    holds about 4 times the k2 values' bytes: the value column, and the sort
    that finds its distinct values.  The whole (2^21, 4) float table that
    the writer took before held 7.7 times."""
    grid = Grid(Torus(2, 1.0), 32)
    n = grid.node_count
    k2 = np.random.default_rng(6).random(n)[grid.offset_index]   # k2 of a constant density
    snapshots = [CorrelationVector(grid, 1.5, 1.0, np.full(n, 0.25), k2, False)] * 2
    tracemalloc.start()
    try:
        for name, table in cli._correlation_tables(grid, [0.0, 0.05], snapshots).items():
            write_csv(tmp_path / name, *table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "k2.csv").stat().st_size > 2 * n * n * 10
    assert peak < 4.5 * 2 * 8 * n * n, peak / (2 * 8 * n * n)
