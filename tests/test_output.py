"""CSV output is byte-identical to a per-cell `csv.writer` reference.

The reference below is the original writer: each cell formatted in Python
as `%.17g` of `float(cell)` and written by `csv.writer`, with the row
lists built cell by cell from the computation results.  Each CLI run's
results are captured on the way to the writer, turned into those
reference rows, and the files must match byte for byte.
"""
import csv
import hashlib
import json

import numpy as np
import pytest

from birthdeath import cli
from birthdeath.cli import main, write_csv


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


# whole numbers that the writer must not take as integer codes
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
def test_write_csv_formats_repeated_columns_once(case):
    rows, reused = WRITER_CASES[case]
    table = np.asarray(rows, dtype=float)
    columns = [cli._distinct_texts(table[:, c], "") for c in range(table.shape[1])]
    assert [col is not None for col in columns] == reused
    for c, col in enumerate(columns):
        if col is not None:
            texts, inverse = col
            assert len(texts) == len(np.unique(table[:, c].view(np.int64)))
            assert texts[inverse].tolist() == [f"{v:.17g}" for v in table[:, c].tolist()]


def test_whole_number_columns_are_not_sorted(monkeypatch):
    """The node indices i, j of a dense k2.csv take their values as codes:
    no sort of the column (`_patterns`) runs."""
    n = 16
    monkeypatch.setattr(cli, "_patterns", None)
    for column in np.divmod(np.arange(3 * n * n) % (n * n), n):
        column = column.astype(float)
        texts, inverse = cli._distinct_texts(column, ",")
        assert texts[inverse].tolist() == [f"{v:.17g}," for v in column.tolist()]
