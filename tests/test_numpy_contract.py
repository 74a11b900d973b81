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
- `sim._hashed_seeds` is `SeedSequence`'s hash;
- `optics._lift` is `np.kron`.
"""

import numpy as np
import pytest

from biphoton import optics, sim, tomo

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
    "einsum-terms": (lambda w, p, n: tomo._einsum("nij,rji->rni", p, w.gram, out=w.terms),
                     lambda w, p, n: tomo._einsum("nij,rji->rni", p, w.gram)),
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
    for subscripts, operands in [("nij,rji->rni", (projectors, gram)),
                                 ("rn,nk->rk", (dldp, floats)),
                                 ("...k,kij->...ij", (dldp, tomo._HERM_BASIS))]:
        expected = np.einsum(subscripts, *operands, optimize=False)
        assert tomo._einsum(subscripts, *operands).tobytes() == expected.tobytes(), subscripts


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
