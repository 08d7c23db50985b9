"""The share-set rank oracle behind shareability, erasure and access.

Every question the package asks about a share set E reduces to one number:
``r_E``, the rank of the check matrix H restricted to the 2|E| columns
owned by E (its x and z parts).  With ``r = n - k`` checks and E' the
complement of E:

* ``2|E| - r_E`` is the dimension of the dual vectors supported inside E;
* ``r - r_E'`` is the dimension of the checks supported inside E;
* J is advance shareable iff ``r_J = 2|J|``;
* E is a correctable erasure iff ``2|E| - r_E = r - r_E'`` (every dual
  vector supported on E is already a check);
* A is qualified iff A' is a correctable erasure, and forbidden iff A is;
* ``I(R:A) = k + 2|A| - n + r_A' - r_A`` in units of log p, for the secret
  maximally entangled with a k-qudit reference R (Fattal, Cubitt, Yamamoto,
  Bravyi and Chuang, "Entanglement in the stabilizer formalism", 2004).

The code distance and the dual minimum weight are the smallest |E| at
which some E fails to be a correctable erasure, respectively has
``r_E < 2|E|``; :meth:`ShareStructure.smallest_size` finds them by walking
share-set sizes, at a cost of share sets visited rather than the ``p**(n+k)``
vectors of the dual space.

:class:`ShareStructure` caches ``r_E`` by share bitmask (bit ``j - 1`` for
share j) and fills missing masks with batched eliminations, one size and
at most :data:`CHUNK` sets, holding at most :data:`CHUNK_ENTRIES` entries,
at a time: :func:`advshare.gfp.packed_rank` on bit-packed columns at
p = 2, :func:`advshare.gfp.batched_rank` at odd p.
:meth:`advshare.pauli.StabilizerCode.share_structure` keeps one per code.
"""

from __future__ import annotations

import enum
import itertools
import math
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import gfp
from .errors import BudgetExceededError
from .symplectic import owned_columns, validated_shares

#: Most share sets one batched elimination takes.
CHUNK = 4096

#: Most entries one batched elimination allocates: per share set of size
#: |E|, its n unpacked mask bits, 2|E| column indices and 2|E| stack rows.
#: Bounds the memory of a rank query whatever its sets' sizes.  Codes on at
#: most 10 shares, or at p = 2 on at most 51 shares and 64 checks, still
#: rank :data:`CHUNK` sets to a chunk.
CHUNK_ENTRIES = 1 << 20


class AccessLabel(enum.Enum):
    QUALIFIED = "qualified"
    FORBIDDEN = "forbidden"
    INTERMEDIATE = "intermediate"


def share_mask(shares: Iterable[int], n: int) -> int:
    """Bitmask of a validated 1-based share set."""
    return sum(1 << (j - 1) for j in validated_shares(shares, n))


def masks_of_size(n: int, size: int) -> list[int]:
    """Bitmasks of every size-``size`` subset of n shares, in lexicographic order."""
    return [sum(c) for c in itertools.combinations([1 << j for j in range(n)], size)]


def _mask_shares(mask: int, n: int) -> tuple[int, ...]:
    """The sorted 1-based shares of a bitmask over n shares."""
    return tuple(j + 1 for j in range(n) if mask >> j & 1)


def check_budget(count: int, budget: int, stage: str, scope: str = "") -> None:
    """Refuse a stage that would visit ``count`` share sets over ``budget``."""
    if count > budget:
        raise BudgetExceededError(
            f"enumeration limit: {count} share sets{scope} exceed budget {budget} ({stage})"
        )


class ShareStructure:
    """Ranks of column-restricted check matrices, cached by share mask."""

    def __init__(self, p: int, n: int, check_matrix: np.ndarray):
        self.p = p
        self.n = n
        self.num_checks = int(check_matrix.shape[0])
        self.full = (1 << n) - 1
        # Row c of the transpose is column c of H: stacking rows selects a
        # share set's columns, and the transpose has the same rank.
        self._columns = gfp.as_matrix(check_matrix, p).T.copy()
        # At p = 2 each column is also one row of uint64 words, a bit per check.
        self._words = gfp.pack_bits(self._columns) if p == 2 else None
        self._row_entries = (self._words if p == 2 else self._columns).shape[1]
        self._ranks: dict[int, int] = {0: 0}

    def ranks(self, masks: Sequence[int]) -> list[int]:
        """r_E for every share mask E."""
        missing = [m for m in dict.fromkeys(masks) if m not in self._ranks]
        by_size: dict[int, list[int]] = {}
        for m in missing:
            by_size.setdefault(m.bit_count(), []).append(m)
        for size, group in by_size.items():
            per_set = self.n + 2 * size * (1 + self._row_entries)
            step = max(1, min(CHUNK, CHUNK_ENTRIES // per_set))
            for start in range(0, len(group), step):
                chunk = group[start : start + step]
                self._ranks.update(zip(chunk, self._chunk_ranks(chunk, size).tolist()))
        return [self._ranks[m] for m in masks]

    def _chunk_ranks(self, masks: Sequence[int], size: int) -> np.ndarray:
        """r_E for share masks that all have ``size`` shares."""
        owned = self._owned_columns(masks, size)
        if self._words is not None:
            return gfp.packed_rank(self._words[owned])
        stack = self._columns[owned]
        # stack is (batch, 2 * size, num_checks); loop over the shorter side.
        if 2 * size < self.num_checks:
            stack = np.swapaxes(stack, 1, 2)
        return gfp.batched_rank(stack, self.p)

    def _owned_columns(self, masks: Sequence[int], size: int) -> np.ndarray:
        """(len(masks), 2 * size) indices of the x then z columns of each set."""
        width = (self.n + 7) // 8
        raw = b"".join(m.to_bytes(width, "little") for m in masks)
        bits = np.unpackbits(
            np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), width),
            axis=1,
            bitorder="little",
        )
        return owned_columns(np.nonzero(bits)[1].reshape(len(masks), size) + 1, self.n)

    def smallest_size(
        self,
        holds: Callable[[int, list[int], list[int]], bool],
        last: int,
        stage: str,
        budget: int,
    ) -> Optional[int]:
        """The first share-set size w <= last at which ``holds`` is true.

        Sizes w = 1, 2, ... are visited in turn; ``holds(w, masks, ranks)``
        sees every size-w mask with its r_E, filled by one batched query.
        Before each size the share sets visited so far, that size included,
        are checked against ``budget``, and a refusal names ``stage``.
        Returns None when no size up to ``last`` qualifies.
        """
        visited = 0
        for size in range(1, last + 1):
            visited += math.comb(self.n, size)
            check_budget(visited, budget, stage, f" up to size {size}")
            masks = masks_of_size(self.n, size)
            if holds(size, masks, self.ranks(masks)):
                return size
        return None

    def shareable(self, masks: Sequence[int]) -> list[bool]:
        """Whether each share set can be handed out before the secret."""
        fits = [m for m in masks if 2 * m.bit_count() <= self.num_checks]
        ok = {m: rk == 2 * m.bit_count() for m, rk in zip(fits, self.ranks(fits))}
        return [ok.get(m, False) for m in masks]

    def _rank_pairs(self, masks: Sequence[int]) -> list[tuple[int, int]]:
        """(r_E, r_E') per mask, filled in one batched query."""
        complements = [self.full ^ m for m in masks]
        ranks = self.ranks(list(masks) + complements)
        return list(zip(ranks[: len(masks)], ranks[len(masks) :]))

    def _erasable(self, size: int, inside: int, outside: int) -> bool:
        """2|E| - r_E == r - r_E': dual vectors inside E are all checks."""
        return 2 * size - inside == self.num_checks - outside

    def correctable(self, masks: Sequence[int]) -> list[bool]:
        """Whether erasing each share set is recoverable."""
        return [
            self._erasable(m.bit_count(), inside, outside)
            for m, (inside, outside) in zip(masks, self._rank_pairs(masks))
        ]

    def labels(self, masks: Sequence[int]) -> list[AccessLabel]:
        """Access label of each share set."""
        out = []
        for m, (inside, outside) in zip(masks, self._rank_pairs(masks)):
            size = m.bit_count()
            if self._erasable(self.n - size, outside, inside):
                out.append(AccessLabel.QUALIFIED)
            elif self._erasable(size, inside, outside):
                out.append(AccessLabel.FORBIDDEN)
            else:
                out.append(AccessLabel.INTERMEDIATE)
        return out

    def mutual_information(self, masks: Sequence[int]) -> list[int]:
        """I(R:A) in units of log p for each share set A."""
        k = self.n - self.num_checks
        return [
            k + 2 * m.bit_count() - self.n + outside - inside
            for m, (inside, outside) in zip(masks, self._rank_pairs(masks))
        ]
