"""Hermitian matrix primitives.

Eigendecompositions, real matrix powers, Thompson metrics on the
positive-definite cone and the positive orthant, and seeded random density
matrices.  All functions take and return plain ``numpy`` arrays; Hermitian
inputs are symmetrized on entry so downstream eigensolvers stay in the
real-spectrum regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, SingularMatrix

# Relative eigenvalue floor: eigenvalues below EIG_FLOOR * lambda_max are
# treated as zero, and fractional/negative powers of such matrices are refused
# instead of silently blowing up.
EIG_FLOOR = 1e-12


def hermitize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (A + A*) / 2 of a square matrix."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInput("matrix has non-finite entries")
    return (a + a.conj().T) / 2


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix."""

    eigenvalues: np.ndarray  # shape (d,), real
    eigenvectors: np.ndarray  # shape (d, d), columns match eigenvalues

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Reassemble sum_i values[i] * u_i u_i^*; Hermitian up to rounding."""
        v = self.eigenvectors
        return (v * values) @ v.conj().T


def hermitian_eig(q: np.ndarray) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues sorted in
    non-increasing order."""
    q = hermitize(q)
    w, v = np.linalg.eigh(q)
    return Spectrum(eigenvalues=w[::-1].copy(), eigenvectors=v[:, ::-1].copy())


def _power_of_eigenvalues(w: np.ndarray, r: float) -> np.ndarray:
    floor = EIG_FLOOR * max(w.max(initial=0.0), 0.0)
    small = w <= floor
    if small.any() and (r < 0 or r != int(r)):
        raise SingularMatrix(
            f"matrix power {r} undefined: eigenvalue {w.min():.3e} below floor {floor:.3e}"
        )
    out = np.where(small, 0.0, w) ** r
    return out


def matrix_power(q: np.ndarray, r: float) -> np.ndarray:
    """Real matrix power Q^r of a Hermitian positive (semi-)definite matrix.

    Negative and fractional powers require all eigenvalues above the relative
    floor ``EIG_FLOOR * lambda_max``; otherwise :class:`SingularMatrix` is
    raised.  ``matrix_power(Q, 1)`` returns the hermitized input unchanged and
    ``matrix_power(Q, 0)`` returns the identity.
    """
    if not np.isfinite(r):
        raise InvalidInput("power must be finite")
    if r == 1:
        return hermitize(q)
    if r == 0:
        return np.eye(np.asarray(q).shape[0], dtype=complex)
    spectrum = hermitian_eig(q)
    return spectrum.apply(_power_of_eigenvalues(spectrum.eigenvalues, r))


def thompson_metric_psd(u: np.ndarray, v: np.ndarray) -> float:
    """Thompson metric between positive definite U and V.

    Computed from the spectrum of L^{-1} U L^{-*}, where V = L L^* is the
    Cholesky factorization (equivalently the generalized eigenvalues of the
    pair (U, V)).
    """
    u = hermitize(u)
    v = hermitize(v)
    if u.shape != v.shape:
        raise InvalidInput(f"dimension mismatch: {u.shape} vs {v.shape}")
    try:
        inv = np.linalg.inv(np.linalg.cholesky(v))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix(f"second argument is not positive definite: {exc}") from exc
    w = np.linalg.eigvalsh(inv @ u @ inv.conj().T)
    if w.min() <= 0:
        raise SingularMatrix("first argument is not positive definite")
    return float(max(np.log(w.max()), -np.log(w.min())))


def thompson_metric_vec(u: np.ndarray, v: np.ndarray) -> float:
    """Thompson metric between strictly positive vectors: max_i |log(u_i / v_i)|."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise InvalidInput(f"dimension mismatch: {u.shape} vs {v.shape}")
    if not (np.all(u > 0) and np.all(v > 0)):
        raise InvalidInput("Thompson metric requires strictly positive vectors")
    return float(np.abs(np.log(u / v)).max())


def random_density_ensemble(seed: int, n: int, d: int) -> list[np.ndarray]:
    """n independent Ginibre density matrices from a single seeded stream."""
    if n < 1 or d < 1:
        raise InvalidInput("ensemble size and dimension must be >= 1")
    rng = np.random.default_rng(seed)
    return [_ginibre_density(rng, d) for _ in range(n)]


def _ginibre_density(rng: np.random.Generator, d: int) -> np.ndarray:
    g = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    m = g @ g.conj().T
    return hermitize(m / np.trace(m).real)

