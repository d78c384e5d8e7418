"""Sector bookkeeping for n qubits identically coupled to one oscillator.

Under the collective coupling J+a + J-a† and a uniform z field, the joint
Hilbert space splits into finite blocks H_{q,j} labelled by the conserved
charge q (eigenvalue of Q = a†a + J_z + n/2) and the total spin j.  This
module enumerates those blocks, their dimensions and basis labels, and the
pairing between blocks that share identical coupling matrices: the image of
one block under the Schwinger relabeling W.

Half-integers are stored doubled (``jj = 2j``, ``mm = 2m``) so that all
index arithmetic is exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, isfinite
from numbers import Real
from sys import float_info
from typing import Optional

import numpy as np


def wrap_pi(x):
    """Wrap to [-π, π)."""
    return (np.asarray(x) + np.pi) % (2 * np.pi) - np.pi


def require_int(value, name: str, lo: Optional[int] = None) -> None:
    """Raise ValueError naming the argument unless value is an int (≥ lo)."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or (lo is not None and value < lo)):
        bound = "" if lo is None else f" ≥ {lo}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def require_type(value, cls: type, name: str) -> None:
    """Raise ValueError naming the argument unless value is a cls."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")


def require_real(value, name: str) -> float:
    """value as a float; raise ValueError naming the argument unless it is a
    finite real number (not a bool)."""
    try:
        finite = isfinite(value)
    except (TypeError, OverflowError):  # not a number / an int beyond float range
        finite = False
    if isinstance(value, bool) or not isinstance(value, Real) or not finite:
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def require_finite(value, name: str, dtype=float) -> np.ndarray:
    """value as a contiguous array of dtype; raise ValueError naming the
    argument unless every entry is a finite number, and a real one unless
    dtype is complex (bools, strings and objects are not numbers here)."""
    arr = np.asarray(value)
    if arr.dtype.kind in ("iufc" if np.dtype(dtype).kind == "c" else "iuf"):
        arr = np.ascontiguousarray(arr, dtype=dtype)
        if np.isfinite(arr).all():
            return arr
    raise ValueError(f"{name} must be finite")


def require_tol(value, name: str) -> None:
    """Raise ValueError naming the argument unless value is a finite real
    number > 0 (not a bool): under a NaN tolerance no comparison holds, and
    under inf every one does."""
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not 0 < value <= float_info.max):  # False for NaN
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def j_min2(n: int) -> int:
    """Doubled minimal total spin: 0 for even n, 1 (= 2*1/2) for odd n."""
    return n & 1


def spins(n: int) -> range:
    """The doubled spins 2j of n qubits, from n down to j_min2(n)."""
    return range(n, j_min2(n) - 1, -2)


def _require_spin(n: int, jj: int) -> None:
    """Raise ValueError unless jj = 2j is a spin of n ≥ 1 qubits."""
    require_int(n, "n", 1)
    require_int(jj, "jj")
    if (jj ^ n) & 1:
        raise ValueError(f"2j={jj} and n={n} must have equal parity")
    if not j_min2(n) <= jj <= n:
        raise ValueError(f"2j={jj} outside [{j_min2(n)}, {n}]")


@dataclass(frozen=True)
class SectorIndex:
    """One invariant block H_{q,j}; ``jj`` is the doubled spin 2j."""

    n: int
    q: int
    jj: int

    def __post_init__(self):
        _require_spin(self.n, self.jj)
        require_int(self.q, "q", 0)
        if 2 * self.q < self.n - self.jj:
            raise ValueError(f"empty sector: q={self.q} < n/2 - j for 2j={self.jj}")
        # the generated hash, once: every block dict lookup asks for it
        object.__setattr__(self, "_hash", hash((self.n, self.q, self.jj)))

    def __hash__(self):
        return self._hash

    @property
    def dim(self) -> int:
        return sector_dim(self)

    def __repr__(self):
        jtxt = str(self.jj // 2) if self.jj % 2 == 0 else f"{self.jj}/2"
        return f"SectorIndex(n={self.n}, q={self.q}, j={jtxt})"


def sector_dim(idx: SectorIndex) -> int:
    """dim H_{q,j} = min{2j+1, q+1+j-n/2}."""
    return min(idx.jj + 1, idx.q + 1 + (idx.jj - idx.n) // 2)


def is_filled(idx: SectorIndex) -> bool:
    """A sector is filled once it reaches its maximal dimension 2j+1."""
    return 2 * idx.q >= idx.n + idx.jj


def multiplicity(n: int, jj: int) -> int:
    """Number of spin-j copies in (C^2)^⊗n: C(n, n/2-j)·(2j+1)/(n/2+j+1)."""
    _require_spin(n, jj)
    num = comb(n, (n - jj) // 2) * (jj + 1)
    den = (n + jj) // 2 + 1
    assert num % den == 0
    return num // den


@lru_cache(maxsize=None, typed=True)
def enumerate_sectors(n: int, q_max: int) -> tuple[SectorIndex, ...]:
    """All nonempty sectors with q ≤ q_max, ordered by (q, descending j).
    Computed once per (n, q_max); the sectors are frozen, so callers share
    the cached tuple."""
    require_int(n, "n", 1)
    require_int(q_max, "q_max", 0)
    return tuple(SectorIndex(n, q, jj) for q in range(q_max + 1)
                 for jj in spins(n)[:q + 1])  # nonempty: n - 2j ≤ 2q


def basis_labels(idx: SectorIndex) -> list[tuple[int, int, int]]:
    """Sector basis |j,m⟩⊗|k⟩ as (2j, 2m, k) triples, the label format that
    ``operators.coupling`` and ``schwinger_image`` take, ordered by
    increasing oscillator level k (decreasing m).

    Labels satisfy m + k + n/2 = q; k runs from max(0, q-j-n/2) up to
    q+j-n/2, giving sector_dim(idx) entries.
    """
    k_lo = max(0, idx.q - (idx.jj + idx.n) // 2)
    k_hi = idx.q + (idx.jj - idx.n) // 2
    out = [(idx.jj, 2 * idx.q - 2 * k - idx.n, k) for k in range(k_lo, k_hi + 1)]
    assert len(out) == sector_dim(idx)
    return out


def schwinger_image(jj: int, mm: int, k: int) -> tuple[int, int, int]:
    """The relabeling W of (2j, 2m, k): in Schwinger's model |j,m⟩ holds
    n_a = j + m and n_b = j - m bosons, and W swaps the oscillator level k
    with n_b, so 2j' = n_a + k, 2m' = n_a - k and k' = n_b.  W is an
    involution and commutes with J+a."""
    return ((jj + mm) // 2 + k, (jj + mm) // 2 - k, (jj - mm) // 2)


def accidental_partner(idx: SectorIndex) -> Optional[SectorIndex]:
    """The unique sector carrying an identical coupling matrix, if any:
    the image of idx under W (``schwinger_image``).

    Every label of H_{q,j} has m + k = q - n/2, so W sends all of them to
    spin 2j' = n_a + k = q + j - n/2, with k' = j - m and m' = j' - k, hence
    charge q' = m' + k' + n/2 = j + j' + n - q, which is q + 3(j - j') as
    q = 2j' - j + n/2.  The image is a partner when 2j' is a spin of n
    qubits other than 2j and both spins are positive (a spin-0 sector
    carries no coupling).  Of each pair, the sector with the smaller spin is
    the filled one.  The map is an involution because W is.
    """
    n, q, jj = idx.n, idx.q, idx.jj
    t = q + (jj - n) // 2  # 2j'
    if (t ^ n) & 1 or t > n or t == jj or 0 in (t, jj):
        return None
    return SectorIndex(n, q + 3 * (jj - t) // 2, t)


@lru_cache(maxsize=None, typed=True)
def accidental_pairs(n: int, q_max: int) -> tuple[tuple[SectorIndex, SectorIndex], ...]:
    """All (unfilled, filled) partner pairs with both charges ≤ q_max,
    computed once per (n, q_max)."""
    partners = ((idx, accidental_partner(idx))
                for idx in enumerate_sectors(n, q_max) if not is_filled(idx))
    return tuple((idx, p) for idx, p in partners
                 if p is not None and p.q <= q_max)
