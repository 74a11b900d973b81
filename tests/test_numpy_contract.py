"""The numpy behaviour that the package's byte-for-byte results rest on.

Each test checks one implementation detail of numpy directly, so that a
numpy upgrade which breaks one names it here, before the larger byte
oracles of the other test files fail somewhere downstream:

- a complex array divided by a real one is its float view multiplied by
  the reciprocal (`tomo._unit_gram`);
- an output passed by position or by `out=` gives the bytes of the
  allocating call, with read-only 0-d operands in place of Python floats
  (every step of `tomo.objective_and_gradient` writes into `tomo._Work`);
- `ndarray.trace` is the complex `add.reduce` over the diagonal;
- stacked linalg, matmul and einsum give each matrix the bits of its own
  call (stacked starts, densities, checks and metrics: the main fit is row
  0 of the bootstrap's stack);
- einsum's C core equals `np.einsum(..., optimize=False)`;
- the probability terms laid out settings first (`"nij,rji->nir"`, rows
  innermost) are, transposed, the bytes of the rows-first layout: the same
  products summed in the same order (`tomo._Work.terms`);
- `sim._hashed_seeds` is `SeedSequence`'s hash;
- `optics._lift` is `np.kron`;
- `qstate`'s LAPACK helpers (`_eigvalsh`, `_eigh`, `_svdvals`, `_lstsq`,
  `_cholesky`) call numpy.linalg's gufuncs as its wrappers do, with their
  bytes and their LinAlgError messages; `_lstsq` on a stack gives each row
  the bits of its own `lstsq` (every linear start and fringe fit); and no
  other code in `src/` calls those five numpy.linalg routines.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from biphoton import optics, qstate, sim, tomo

SRC = Path(__file__).resolve().parents[1] / "src" / "biphoton"

ROWS = [1, 7, 64]


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def ginibre(rng, rows):
    """`rows` positive definite unit-trace 4x4 states."""
    g = complex_normal(rng, (rows, 4, 4))
    gram = g @ g.conj().transpose(0, 2, 1)
    return gram / gram.trace(axis1=1, axis2=2).real.reshape(-1, 1, 1)


@pytest.mark.parametrize("rows", ROWS)
def test_complex_over_real_is_floats_times_reciprocal(rows):
    rng = np.random.default_rng(rows)
    gram = complex_normal(rng, (rows, 4, 4))
    trace = rng.uniform(0.1, 10.0, (rows, 1))
    floats = gram.reshape(rows, 16).view(np.float64) * (1.0 / trace)
    expected = gram / trace.reshape(-1, 1, 1)
    assert floats.view(np.complex128).reshape(rows, 4, 4).tobytes() == expected.tobytes()


def filled_work(rows):
    """A `tomo._Work` bound to `rows` rows, every buffer filled with random
    values (T's only at its parameter floats), and random counts."""
    rng = np.random.default_rng(100 + rows)
    projectors = complex_normal(rng, (16, 4, 4))
    work = tomo._Work()
    work.bind(rows, rng.uniform(1.0, 1e4, 16), projectors)
    work.floats[:, tomo._PARAM_FLOATS] = rng.standard_normal((rows, 16))
    for name in ("conj", "gram", "diagonal_sum", "terms", "weight", "product"):
        buffer = getattr(work, name)
        buffer[...] = rng.standard_normal(buffer.shape) if buffer.dtype == float else (
            complex_normal(rng, buffer.shape))
    for name in ("inv", "probs", "floored", "residuals", "squares", "scratch", "dldp",
                 "values", "identity_term"):
        buffer = getattr(work, name)
        buffer[...] = rng.uniform(1e-3, 10.0, buffer.shape)
    work.diagonal_sum.real = rng.uniform(0.1, 10.0, rows)
    work.probs[:, ::3] = 0.0  # at the floor
    return work, projectors, rng.uniform(0.0, 1e4, (rows, 16))


# Each step that writes into `_Work`, and its allocating call.
INTO_CASES = {
    "conjugate": (lambda w, p, n: np.conjugate(w.tri, w.conj),
                  lambda w, p, n: np.conjugate(w.tri)),
    "matmul-gram": (lambda w, p, n: np.matmul(w.tri, w.tri_h, w.gram),
                    lambda w, p, n: np.matmul(w.tri, w.tri_h)),
    "reduce-diagonal": (lambda w, p, n: np.add.reduce(w.gram_diagonal, 1, None,
                                                      w.diagonal_sum),
                        lambda w, p, n: np.add.reduce(w.gram_diagonal, 1)),
    "reciprocal": (lambda w, p, n: np.divide(tomo._ONE, w.trace, w.inv),
                   lambda w, p, n: 1.0 / w.trace),
    "scale-floats": (lambda w, p, n: np.multiply(w.gram_floats, w.inv, w.gram_floats),
                     lambda w, p, n: w.gram_floats * w.inv),
    "einsum-terms": (lambda w, p, n: tomo._einsum("nij,rji->nir", p, w.gram, out=w.terms),
                     lambda w, p, n: tomo._einsum("nij,rji->nir", p, w.gram)),
    "add-columns": (lambda w, p, n: np.add(w.term_columns[0], w.term_columns[1], w.probs),
                    lambda w, p, n: w.term_columns[0] + w.term_columns[1]),
    "add-in-place": (lambda w, p, n: np.add(w.probs, w.term_columns[2], w.probs),
                     lambda w, p, n: w.probs + w.term_columns[2]),
    "maximum": (lambda w, p, n: np.maximum(w.probs, tomo._PROB_FLOOR, out=w.floored),
                lambda w, p, n: np.maximum(w.probs, tomo._PROB_FLOOR)),
    "greater": (lambda w, p, n: np.greater(w.probs, tomo._PROB_FLOOR, w.above),
                lambda w, p, n: w.probs > tomo._PROB_FLOOR),
    "multiply-pairs": (lambda w, p, n: np.multiply(w.pairs, w.probs, w.residuals),
                       lambda w, p, n: w.pairs * w.probs),
    "subtract-into-operand": (lambda w, p, n: np.subtract(n, w.residuals, w.residuals),
                              lambda w, p, n: n - w.residuals),
    "square": (lambda w, p, n: np.square(w.residuals, w.squares),
               lambda w, p, n: np.square(w.residuals)),
    "divide-in-place": (lambda w, p, n: np.divide(w.squares, w.scratch, w.scratch),
                        lambda w, p, n: w.squares / w.scratch),
    "reduce-rows": (lambda w, p, n: np.add.reduce(w.scratch, 1, None, w.values),
                    lambda w, p, n: np.add.reduce(w.scratch, 1)),
    "minus-two": (lambda w, p, n: np.multiply(tomo._MINUS_TWO, w.residuals, w.dldp),
                  lambda w, p, n: -2.0 * w.residuals),
    "einsum-weight": (lambda w, p, n: tomo._einsum("rn,nk->rk", w.dldp, w.projector_floats,
                                                   out=w.weight),
                      lambda w, p, n: tomo._einsum("rn,nk->rk", w.dldp, w.projector_floats)),
    "reduce-keepdims": (lambda w, p, n: np.add.reduce(w.residuals, 1, None,
                                                      w.identity_term, True),
                        lambda w, p, n: np.add.reduce(w.residuals, 1, keepdims=True)),
    "subtract-diagonal": (lambda w, p, n: np.subtract(w.weight_diagonal, w.identity_term,
                                                      w.weight_diagonal),
                          lambda w, p, n: w.weight_diagonal - w.identity_term),
    "matmul-product": (lambda w, p, n: np.matmul(w.weight_matrix, w.tri, w.product),
                       lambda w, p, n: w.weight_matrix @ w.tri),
}


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("case", sorted(INTO_CASES))
def test_output_into_buffer_equals_allocating_call(case, rows):
    into, allocating = INTO_CASES[case]
    work, projectors, counts = filled_work(rows)
    expected = allocating(work, projectors, counts)
    got = into(work, projectors, counts)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("rows", ROWS)
def test_trace_is_the_complex_reduce_of_the_diagonal(rows):
    mats = complex_normal(np.random.default_rng(200 + rows), (rows, 4, 4))
    reduced = np.add.reduce(mats.reshape(rows, 16)[:, ::5], 1)
    assert mats.trace(axis1=1, axis2=2).tobytes() == reduced.tobytes()
    assert mats.trace(axis1=1, axis2=2).real.tobytes() == reduced.real.tobytes()


def test_stacked_calls_equal_one_matrix_calls():
    rng = np.random.default_rng(300)
    mats = ginibre(rng, 50)
    others = complex_normal(rng, (50, 4, 4))
    coeffs = rng.standard_normal((50, 16))
    evals, evecs = np.linalg.eigh(mats)
    stacked = {
        "eigvalsh": np.linalg.eigvalsh(mats),
        "svd": np.linalg.svd(others, compute_uv=False),
        "cholesky": np.linalg.cholesky(mats),
        "matmul": mats @ others,
        "einsum": np.einsum("...k,kij->...ij", coeffs, tomo._HERM_BASIS),
    }
    for r in range(50):
        one_evals, one_evecs = np.linalg.eigh(mats[r])
        assert evals[r].tobytes() == one_evals.tobytes()
        assert evecs[r].tobytes() == one_evecs.tobytes()
        single = {
            "eigvalsh": np.linalg.eigvalsh(mats[r]),
            "svd": np.linalg.svd(others[r], compute_uv=False),
            "cholesky": np.linalg.cholesky(mats[r]),
            "matmul": mats[r] @ others[r],
            "einsum": np.einsum("...k,kij->...ij", coeffs[r], tomo._HERM_BASIS),
        }
        for name, value in single.items():
            assert stacked[name][r].tobytes() == value.tobytes(), name


def test_c_einsum_equals_einsum_without_optimize():
    rng = np.random.default_rng(400)
    projectors = complex_normal(rng, (16, 4, 4))
    gram = complex_normal(rng, (7, 4, 4))
    dldp = rng.standard_normal((7, 16))
    floats = projectors.reshape(16, 16).view(np.float64)
    for subscripts, operands in [("nij,rji->nir", (projectors, gram)),
                                 ("rn,nk->rk", (dldp, floats)),
                                 ("...k,kij->...ij", (dldp, tomo._HERM_BASIS))]:
        expected = np.einsum(subscripts, *operands, optimize=False)
        assert tomo._einsum(subscripts, *operands).tobytes() == expected.tobytes(), subscripts


@pytest.mark.parametrize("rows", [1, 7, 64, 201, 256])
def test_settings_first_terms_are_the_rows_first_bytes(rows):
    rng = np.random.default_rng(450 + rows)
    projectors = tomo._plan_arrays(sim.tomography_plan())[0]
    gram = ginibre(rng, rows)
    gram[::5] = 0.0
    gram[1::5] = -0.0
    gram[2::5, 1, 2] = complex(-0.0, 0.0)
    gram[3::5, 3] = complex(-0.0, -0.0)
    settings_first = tomo._einsum("nij,rji->nir", projectors, gram)
    rows_first = tomo._einsum("nij,rji->rni", projectors, gram)
    assert settings_first.shape == (16, 4, rows)
    assert settings_first.transpose(2, 0, 1).tobytes() == rows_first.tobytes()


@pytest.mark.parametrize("words", [[0], [7, 3], [2**32 - 1, 5, 9]])
def test_hashed_seeds_are_seed_sequence_states(words):
    hashed = sim._hashed_seeds(words, 40)
    for i, row in enumerate(hashed):
        state = np.random.SeedSequence([*words, i]).generate_state(4, np.uint64)
        assert row.tobytes() == state.tobytes()


@pytest.mark.parametrize("arm", [1, 2])
def test_lift_is_kron(arm):
    rng = np.random.default_rng(500 + arm)
    eye = np.eye(2, dtype=complex)
    for _ in range(50):
        op = complex_normal(rng, (2, 2))
        op[tuple(rng.integers(0, 2, size=2))] = complex(*rng.choice([0.0, -0.0], size=2))
        want = np.kron(op, eye) if arm == 1 else np.kron(eye, op)
        assert optics._lift(op, arm).tobytes() == want.tobytes()


# Each LAPACK helper and its numpy.linalg counterpart.
HELPERS = {
    "eigvalsh": (qstate._eigvalsh, np.linalg.eigvalsh),
    "eigh": (qstate._eigh, np.linalg.eigh),
    "svd": (qstate._svdvals, lambda a: np.linalg.svd(a, compute_uv=False)),
    "cholesky": (qstate._cholesky, np.linalg.cholesky),
}


def lstsq(a, v):
    return np.linalg.lstsq(a, v, rcond=None)[0]


def outcome(call, *args):
    """The LinAlgError message `call(*args)` raises, or the dtype, shape and
    bytes of each array it returns."""
    try:
        result = call(*args)
    except np.linalg.LinAlgError as exc:
        return "LinAlgError", str(exc)
    parts = result if isinstance(result, tuple) else (result,)
    return "arrays", [(part.dtype.str, part.shape, part.tobytes()) for part in parts]


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("name", sorted(HELPERS))
def test_helper_gives_the_bytes_of_numpy_linalg(name, rows):
    helper, public = HELPERS[name]
    rng = np.random.default_rng(600 + rows)
    stacks = [ginibre(rng, rows), ginibre(rng, rows).real + 4.0 * np.eye(4)]
    if name == "svd":
        stacks += [rng.standard_normal((rows, 18, 3)), complex_normal(rng, (rows, 3, 5))]
    for stack in stacks:
        for mats in (stack, stack[0]):
            assert outcome(helper, mats) == outcome(public, mats), mats.shape


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("shape", [(9, 5), (5, 5), (3, 5)], ids=["tall", "square", "wide"])
@pytest.mark.parametrize("kind", [float, complex])
def test_lstsq_helper_gives_the_bytes_of_numpy_lstsq(kind, shape, rows):
    rng = np.random.default_rng(700 + rows)
    draw = rng.standard_normal if kind is float else lambda size: complex_normal(rng, size)
    a, b = draw(shape), draw((rows, shape[0]))
    got = qstate._lstsq(a, b)
    assert got.shape == (rows, shape[1]) and got.dtype == kind
    for r in range(rows):
        assert outcome(qstate._lstsq, a, b[r]) == outcome(lstsq, a, b[r])
        assert got[r].tobytes() == lstsq(a, b[r]).tobytes()


def test_helpers_fail_as_numpy_linalg_does():
    rng = np.random.default_rng(800)
    stack = ginibre(rng, 7)
    stack[3] = np.nan
    for name, (helper, public) in sorted(HELPERS.items()):
        for bad in (stack, stack[3], stack.real):
            got = outcome(helper, bad)
            assert got == outcome(public, bad), name
            # numpy's cholesky passes NaN through; it fails on a matrix that
            # is not positive definite.
            assert got[0] == ("arrays" if name == "cholesky" else "LinAlgError"), name
    negative = -np.eye(4, dtype=complex)
    assert outcome(qstate._cholesky, negative) == outcome(np.linalg.cholesky, negative) == (
        "LinAlgError", "Matrix is not positive definite")
    # A NaN in a right-hand side gives NaN; one in the design fails lstsq.
    design, b = rng.standard_normal((9, 5)), rng.standard_normal((7, 9))
    b[3, 2] = np.nan
    got = qstate._lstsq(design, b)
    assert np.isnan(got[3]).all()
    for r in range(7):
        assert got[r].tobytes() == lstsq(design, b[r]).tobytes()
    design[1, 1] = np.nan
    for v in (b, b[0]):
        assert outcome(qstate._lstsq, design, v) == outcome(lstsq, design, b[0]) == (
            "LinAlgError", "SVD did not converge in Linear Least Squares")


def fringe_design():
    """`sim.FringeCurve.fit`'s design at the 18 fringe angles."""
    theta = np.deg2rad(np.arange(0.0, 180.0, 10.0))
    return np.column_stack([np.ones_like(theta), np.cos(2.0 * theta), np.sin(2.0 * theta)])


@pytest.mark.parametrize("rows", [1, 7, 64, 201])
@pytest.mark.parametrize("design", ["hvdr16", "fringe"])
def test_stacked_solve_equals_one_lstsq_per_row(design, rows):
    a = tomo._plan_arrays(sim.tomography_plan())[1] if design == "hvdr16" else fringe_design()
    rng = np.random.default_rng(900 + rows)
    b = rng.uniform(0.0, 1.0, (rows, len(a)))
    b[::3] = 0.0
    got = qstate._lstsq(a, b)
    for r in range(rows):
        assert got[r].tobytes() == lstsq(a, b[r]).tobytes()


LAPACK_ROUTINES = {"eigvalsh", "eigh", "svd", "lstsq", "cholesky"}


def lapack_breaches(tree: ast.Module, helpers_module: bool) -> list:
    """Where `tree` reaches numpy.linalg's eigvalsh, eigh, svd, lstsq or
    cholesky (`np.linalg.eigh`, `linalg.svd`, `from numpy.linalg import
    lstsq`, `import numpy.linalg`, `from numpy import linalg`), or, outside
    `qstate` (`helpers_module`), its gufuncs (`_umath_linalg`)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in LAPACK_ROUTINES and (
                isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
                or isinstance(node.value, ast.Name) and node.value.id == "linalg"):
            found.append(f"linalg.{node.attr}, line {node.lineno}")
        elif isinstance(node, ast.Import) and any(
                alias.name.startswith("numpy.linalg") for alias in node.names):
            found.append(f"import numpy.linalg, line {node.lineno}")
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
            names = {alias.name for alias in node.names}
            if names & (LAPACK_ROUTINES | {"linalg", "*"}):
                found.append(f"from {node.module} import, line {node.lineno}")
        if not helpers_module and (isinstance(node, ast.Name) and node.id == "_umath_linalg"
                                   or isinstance(node, ast.alias)
                                   and node.name == "_umath_linalg"):
            found.append(f"_umath_linalg, line {node.lineno}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_lapack_is_called_only_through_the_qstate_helpers(path):
    tree = ast.parse(path.read_text(), str(path))
    assert lapack_breaches(tree, path.name == "qstate.py") == []


def test_the_lapack_guard_sees_each_form():
    code = ("import numpy as np, numpy.linalg\n"
            "from numpy.linalg import lstsq\n"
            "from numpy import linalg\n"
            "np.linalg.eigh(a)\n"
            "numpy.linalg.svd(a)\n"
            "linalg.cholesky(a)\n"
            "from numpy.linalg import _umath_linalg\n"
            "np.linalg.norm(a)\n")
    for helpers_module, lines in [(False, [1, 2, 3, 4, 5, 6, 7]), (True, [1, 2, 3, 4, 5, 6])]:
        found = lapack_breaches(ast.parse(code), helpers_module)
        assert sorted(int(breach.rpartition(" ")[2]) for breach in found) == lines
