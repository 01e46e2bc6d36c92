import ast
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest

import fidur
import fidur.linalg
import fidur.states
from fidur.errors import (
    DimensionMismatch,
    NoConvergence,
    NotHermitian,
    NotPSD,
    ValidationError,
)
from fidur.fidelity import fidelity, fidelity_oracle
from fidur.linalg import hermitian_eig, psd_sqrt
from fidur.states import DensityMatrix, ProjectiveObservable, PureState, sample_haar_unitary


def random_hermitian(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (z + z.conj().T) / 2


def random_psd(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return z @ z.conj().T


class TestHermitianEig:
    def test_identity(self):
        w, v = hermitian_eig(np.eye(2))
        assert w == pytest.approx([1.0, 1.0], abs=1e-14)
        assert np.abs(v.conj().T @ v - np.eye(2)).max() < 1e-12

    def test_diagonal_passthrough(self):
        w, _ = hermitian_eig(np.diag([0.4, 0.6]))
        assert w == pytest.approx([0.4, 0.6], abs=1e-15)

    def test_pauli_x_spectrum_matches_characteristic_polynomial(self):
        """Eigenvalues of [[0,1],[1,0]] cross-checked against polynomial roots."""
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        w, _ = hermitian_eig(x)
        roots = np.sort(np.roots([1.0, -np.trace(x), np.linalg.det(x)]).real)
        assert w == pytest.approx(roots, abs=1e-12)
        assert w == pytest.approx([-1.0, 1.0], abs=1e-12)

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(7)
        for dim in range(2, 13):
            w, _ = hermitian_eig(random_hermitian(dim, rng))
            assert np.all(np.diff(w) >= 0)

    def test_reconstruction_and_residual(self):
        """V diag(w) V^dag reproduces H relative to the spectral norm."""
        rng = np.random.default_rng(11)
        for dim in range(2, 13):
            h = random_hermitian(dim, rng)
            w, v = hermitian_eig(h)
            scale = max(np.abs(w).max(), 1e-300)
            assert np.abs((v * w) @ v.conj().T - h).max() / scale < 1e-9
            assert np.abs(h @ v - v * w).max() / scale < 1e-10
            assert np.abs(v.conj().T @ v - np.eye(dim)).max() < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            hermitian_eig(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_stack_matches_each_member(self):
        rng = np.random.default_rng(13)
        h = np.stack([random_hermitian(4, rng) for _ in range(5)])
        w, v = hermitian_eig(h)
        for k in range(5):
            wk, vk = hermitian_eig(h[k])
            assert np.array_equal(w[k], wk) and np.array_equal(v[k], vk)

    def test_deterministic_for_fixed_input(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(5, rng)
        w1, v1 = hermitian_eig(h)
        w2, v2 = hermitian_eig(h.copy())
        assert np.array_equal(w1, w2)
        assert np.array_equal(v1, v2)


class TestPsdSqrt:
    def test_identity(self):
        assert np.abs(psd_sqrt(np.eye(3)) - np.eye(3)).max() < 1e-14

    def test_diagonal(self):
        assert np.abs(psd_sqrt(np.diag([4.0, 9.0])) - np.diag([2.0, 3.0])).max() < 1e-14

    def test_projector_is_its_own_root(self):
        p = np.zeros((2, 2))
        p[0, 0] = 1.0
        assert np.abs(psd_sqrt(p) - p).max() < 1e-14

    def test_square_recovers_input(self):
        rng = np.random.default_rng(23)
        for dim in range(2, 13):
            m = random_psd(dim, rng)
            s = psd_sqrt(m)
            assert np.abs(s - s.conj().T).max() < 1e-12
            assert np.abs(s @ s - m).max() < 1e-9 * max(1.0, np.abs(m).max())

    def test_noise_floor_suppresses_round_off_rank(self):
        """The root of a rank-one projector stays rank one instead of
        acquiring ~1e-8 junk from square-rooted round-off eigenvalues."""
        rng = np.random.default_rng(5)
        v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        v /= np.linalg.norm(v)
        s = psd_sqrt(np.outer(v, v.conj()))
        w = np.linalg.eigvalsh(s)
        assert w[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(w[:-1]).max() < 1e-12

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotPSD):
            psd_sqrt(np.diag([1.0, -1e-6]))

    def test_rejects_a_stack(self):
        with pytest.raises(DimensionMismatch):
            psd_sqrt(np.stack([np.eye(2), np.eye(2)]))

    def test_clamps_tiny_negative(self):
        s = psd_sqrt(np.diag([1.0, -1e-12]))
        assert s[1, 1] == 0.0


# One bad matrix, every entry point: the Hermitian and PSD checks are linalg's.
NON_HERMITIAN = np.array([[0.5, 0.5], [0.0, 0.5]])
NEGATIVE = np.diag([1.0 + 1e-6, -1e-6])
# Each eigenvalue is above -psd_clamp, their sum is not: lambda_max would reach 1 + 1e-9.
SPREAD_NEGATIVE = np.diag([1.0 + 9.9e-10] + [-0.99e-10] * 10)
GOOD = np.diag([0.5, 0.5])
# Built before any solver is made to fail, so the fidelity routes reach their own solve.
PAIR = (DensityMatrix(np.diag([0.25, 0.75])), DensityMatrix(GOOD))
ENTRY_POINTS = {
    "DensityMatrix": DensityMatrix,
    "DensityMatrix stack member": lambda m: DensityMatrix(np.stack([np.eye(len(m)) / len(m), m])),
    "hermitian_eig": hermitian_eig,
    "psd_sqrt": psd_sqrt,
}

# Each entry that coerces through as_complex_stack, with a valid int array of 0s and 1s.
COERCED = {
    DensityMatrix: np.diag([1, 0]),
    PureState: np.array([1, 0]),
    ProjectiveObservable: np.eye(2, dtype=int),
    hermitian_eig: np.eye(2, dtype=int),
    psd_sqrt: np.eye(2, dtype=int),
}


class TestOneCheck:
    def test_check_errors_are_validation_errors(self):
        assert issubclass(NotHermitian, ValidationError)
        assert issubclass(NotPSD, ValidationError)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_non_hermitian_is_not_hermitian_everywhere(self, entry):
        with pytest.raises(NotHermitian):
            ENTRY_POINTS[entry](NON_HERMITIAN)

    @pytest.mark.parametrize("m", [NEGATIVE, SPREAD_NEGATIVE], ids=["one", "spread"])
    @pytest.mark.parametrize("entry", ["DensityMatrix", "DensityMatrix stack member", "psd_sqrt"])
    def test_negative_eigenvalue_is_not_psd_everywhere(self, entry, m):
        with pytest.raises(NotPSD):
            ENTRY_POINTS[entry](m)

    @pytest.mark.parametrize("call", [DensityMatrix, hermitian_eig, psd_sqrt])
    @pytest.mark.parametrize("shape", [(0, 0), (0, 2, 2)])
    def test_empty_is_a_validation_error_everywhere(self, call, shape):
        with pytest.raises(ValidationError):
            call(np.zeros(shape))

    @pytest.mark.parametrize("bad", ["none", "str", "ragged", "dict", "object", "bool"])
    @pytest.mark.parametrize("call", COERCED, ids=lambda c: c.__name__)
    def test_malformed_input_is_a_validation_error_everywhere(self, call, bad):
        """numpy would raise a bare ValueError or TypeError for the first four,
        and read an object or bool array of valid numbers as numbers."""
        valid = COERCED[call]
        call(valid)  # the int array itself is accepted
        x = {"none": None, "str": "x", "ragged": [[1], [1, 2]], "dict": {},
             "object": valid.astype(object), "bool": valid.astype(bool)}[bad]
        with pytest.raises(ValidationError):
            call(x)

    @pytest.mark.parametrize(
        "solver, call",
        [
            ("eigvalsh", lambda: DensityMatrix(GOOD)),
            ("eigh", lambda: DensityMatrix(GOOD).sqrt),
            ("eigh", lambda: hermitian_eig(GOOD)),
            ("eigh", lambda: psd_sqrt(GOOD)),
            ("eigvalsh", lambda: DensityMatrix(np.stack([GOOD, GOOD]))),
            ("svd", lambda: fidelity_oracle(*PAIR)),
            ("eigvalsh", lambda: fidelity(*PAIR)),
        ],
    )
    def test_solver_failure_is_no_convergence_everywhere(self, monkeypatch, solver, call):
        if solver == "svd":  # the one solver still called through np.linalg
            def fail(*args, **kwargs):
                raise np.linalg.LinAlgError("forced")

            monkeypatch.setattr(np.linalg, "svd", fail)
        else:
            real = fidur.linalg._umath_linalg
            gufuncs = SimpleNamespace(eigh_lo=real.eigh_lo, eigvalsh_lo=real.eigvalsh_lo)
            gufunc = getattr(real, f"{solver}_lo")

            def fail(h, signature):
                # LAPACK does not converge on this matrix: a real failure, not a fake one.
                return gufunc(np.full((3, 3), np.nan, dtype=complex), signature=signature)

            setattr(gufuncs, f"{solver}_lo", fail)
            monkeypatch.setattr(fidur.linalg, "_umath_linalg", gufuncs)
        with pytest.raises(NoConvergence):
            call()


def _hermitian_stack(rng, shape, dim):
    z = rng.standard_normal((*shape, dim, dim)) + 1j * rng.standard_normal((*shape, dim, dim))
    return (z + fidur.linalg.adjoint(z)) / 2


class TestSolverSeam:
    """``eigensolve`` and ``qr_unitary`` call numpy's LAPACK gufuncs without
    ``np.linalg``'s wrapper; they must keep its bits and its failure mapping."""

    @pytest.mark.parametrize("shape", [(), (1,), (5,), (2, 3)], ids=str)
    @pytest.mark.parametrize("dim", range(1, 11))
    def test_eigensolve_is_bitwise_np_linalg(self, dim, shape):
        h = _hermitian_stack(np.random.default_rng(dim), shape, dim)
        w, v = fidur.linalg.eigensolve(h, vectors=True)
        w_ref, v_ref = np.linalg.eigh(h)
        assert w.tobytes() == w_ref.tobytes() and v.tobytes() == v_ref.tobytes()
        assert fidur.linalg.eigensolve(h).tobytes() == np.linalg.eigvalsh(h).tobytes()

    @pytest.mark.parametrize("shape", [(), (1,), (5,), (2, 3)], ids=str)
    @pytest.mark.parametrize("dim", range(1, 11))
    def test_qr_is_bitwise_np_linalg(self, dim, shape):
        rng = np.random.default_rng(100 + dim)
        a = rng.standard_normal((*shape, dim, dim)) + 1j * rng.standard_normal((*shape, dim, dim))
        q_ref, r_ref = np.linalg.qr(a)
        q, d = fidur.linalg.qr_unitary(a.copy())
        assert q.tobytes() == q_ref.tobytes()
        assert d.tobytes() == np.diagonal(r_ref, axis1=-2, axis2=-1).tobytes()

    @staticmethod
    def _np_linalg_haar(ginibre: np.ndarray) -> np.ndarray:
        q, r = np.linalg.qr(ginibre)
        d = np.diagonal(r, axis1=-2, axis2=-1)
        ph = np.where(np.abs(d) > 0, d, 1.0)
        return q * (ph / np.abs(ph))[..., None, :]

    @pytest.mark.parametrize("count", [None, 4])
    @pytest.mark.parametrize("dim", range(1, 11))
    def test_haar_sampler_is_bitwise_the_np_linalg_route(self, dim, count):
        shape = (dim, dim) if count is None else (count, dim, dim)
        x = np.random.default_rng(dim).standard_normal((2, *shape))
        expected = self._np_linalg_haar((x[0] + 1j * x[1]) / np.sqrt(2.0))
        assert sample_haar_unitary(dim, dim, count).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dim", range(1, 11))
    def test_a_zero_diagonal_of_r_takes_phase_one(self, dim, monkeypatch):
        """A Ginibre matrix with an exactly zero column has R_jj = 0 there; that
        phase is 1, with no RuntimeWarning (pytest makes a warning an error)."""
        rng = np.random.default_rng(300 + dim)
        z = rng.standard_normal((4, dim, dim)) + 1j * rng.standard_normal((4, dim, dim))
        for k in range(4):
            z[k, :, k % dim] = 0.0
        monkeypatch.setattr(fidur.states, "_gaussian", lambda stream, shape: z.copy())
        d = np.diagonal(np.linalg.qr(z)[1], axis1=-2, axis2=-1)
        assert (d == 0).any(axis=-1).all()
        assert sample_haar_unitary(dim, 0, 4).tobytes() == self._np_linalg_haar(z).tobytes()

    @pytest.mark.parametrize("vectors", [False, True])
    @pytest.mark.parametrize("dim", range(3, 11))
    def test_a_nan_matrix_is_no_convergence_not_a_warning(self, dim, vectors):
        # pytest turns a RuntimeWarning into an error, which is not NoConvergence.
        with pytest.raises(NoConvergence):
            fidur.linalg.eigensolve(np.full((2, dim, dim), np.nan, dtype=complex), vectors)

    def test_only_linalg_imports_the_lapack_gufuncs(self):
        importers = []
        for path in sorted(pathlib.Path(fidur.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                    if any("_umath_linalg" in n for n in names):
                        importers.append(path.name)
        assert importers == ["linalg.py"]
