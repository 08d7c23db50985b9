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

The same questions read off the normalizer N(S) = S^perp, the 2n - r
dual vectors of the checks, with generator matrix G.  Puncturing and
shortening swap under duality, ``(S|_E)^perp = (S^perp)_E`` (MacWilliams
and Sloane, ch. 1 section 9), so ``g_E``, the rank of G on E's columns,
gives ``r_E' = r - 2|E| + g_E`` exactly.  Hence E is correctable iff
``r_E = g_E``, ``I(R:A) = g_A - r_A``, and ``0 <= g_E - r_E <= 2k``.

The code distance and the dual minimum weight are the smallest |E| at which
some E fails to be a correctable erasure, respectively has ``r_E < 2|E|``;
:meth:`ShareStructure.smallest_size` finds them by walking share-set sizes,
at a cost of share sets visited rather than the ``p**(n+k)`` dual vectors.

A share set is a sorted row of distinct 1-based shares (not validated
here), and a query takes the rows of m sets of one size w.
:func:`share_sets` lists every w-set in lexicographic order, in which row i
of size w and row ``C(n, w) - 1 - i`` of size ``n - w`` are complements.
:class:`ShareStructure` keeps each size's listing and array of r_E
(:meth:`ShareStructure.sets`, :meth:`ShareStructure.level`), so every walk
lists a size once per code and reads r_E' as ``level(n - w)[::-1]``.  A
size of at least :data:`LIST_FROM_BELOW` sets is listed from the kept size
below it, each set extended by every share above its last, which keeps
the order; a smaller size, or one whose size below is not kept, is listed
by ``itertools.combinations``.  A query on given sets reads a kept level
by row index.  The whole access table (:meth:`ShareStructure.table`)
ranks each size w < n/2 on H and G together and fills size n - w from the
identity above, so no size above n/2 is eliminated.  Everything else is
eliminated on H alone.  Eliminations run in batches of at most
:data:`CHUNK_ENTRIES` entries, by a kernel that loops over the cheaper
side of each set's matrix in narrow words: :func:`advshare.gfp.packed_rank`
on bit-packed columns at p = 2, :func:`advshare.gfp.batched_rank` on uint8
columns at odd p, which are below p already and so skip its division
pass.  At p = 2 a batch of fewer than :data:`advshare.gfp.INT_RANK_BATCH`
sets, such as the few complements a walk asks for, is ranked one set at a
time on Python ints, since a numpy step costs about the same for one set
as for a thousand.
:attr:`advshare.pauli.StabilizerCode.share_structure` keeps one per code.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from typing import Callable, Optional

import numpy as np

from . import gfp
from .errors import BudgetExceededError, InvariantError
from .symplectic import orthogonality_rows, owned_columns, qudit_count

#: Most entries one batched elimination allocates: per share set of size
#: |E|, 2|E| column indices and 2|E| stack rows per matrix ranked on them
#: (two in :meth:`ShareStructure.table`), plus n membership flags when the
#: sets are complements.  Bounds the memory of a rank query
#: whatever its sets' sizes.
CHUNK_ENTRIES = 1 << 20

#: Levels of at least this many share sets are listed from the kept level
#: below by one ``np.repeat`` (:func:`_extended`, about 12 us plus 15 ns a
#: set); smaller ones by ``np.fromiter`` over ``itertools.combinations``
#: (:func:`share_sets`, about 4 us plus 28 ns an entry), which costs less
#: there.  Of 0, 32, 128, 512 and never, timed in-process on the benchmark's
#: ``scan`` and ``access`` ladders (one 2-vCPU VM, alternated per op), 128
#: was the fastest on both; 512 was within noise of it, and never listing
#: from below was 2-4% slower.
LIST_FROM_BELOW = 128


class AccessLabel(enum.Enum):
    QUALIFIED = "qualified"
    FORBIDDEN = "forbidden"
    INTERMEDIATE = "intermediate"


_LABELS = list(AccessLabel)


def share_sets(n: int, w: int) -> np.ndarray:
    """Every w-subset of the shares 1..n, one per row, in lexicographic order."""
    count = math.comb(n, w)
    flat = itertools.chain.from_iterable(itertools.combinations(range(1, n + 1), w))
    return np.fromiter(flat, dtype=np.intp, count=count * w).reshape(count, w)


def _extended(sets: np.ndarray, n: int) -> np.ndarray:
    """``share_sets(n, w + 1)`` from ``sets``, the listing of size w: each
    w-set followed by each share above its last, which keeps the order
    lexicographic."""
    last = sets[:, -1] if sets.shape[1] else np.zeros(len(sets), dtype=np.intp)
    counts = n - last
    out = np.empty((int(counts.sum()), sets.shape[1] + 1), dtype=np.intp)
    out[:, :-1] = np.repeat(sets, counts, axis=0)
    # Extension j of set i is last_i + 1 + j; set i's extensions start at
    # row sum(counts[:i]).
    first = np.cumsum(counts) - counts - last - 1
    out[:, -1] = np.arange(len(out)) - np.repeat(first, counts)
    return out


def _row_index(sets: np.ndarray, n: int) -> np.ndarray:
    """The row of each sorted w-set in ``share_sets(n, w)``:
    ``C(n, w) - 1 - sum_i C(n - s_i, w - i)`` over 0-based positions i."""
    count, w = sets.shape
    # n - s_i - (w - i) runs over -1 .. n - w - 1, so row j + 1 of the table,
    # column k, holds C(j + k, k); row 0 holds C(k - 1, k) = 0 for k >= 1.
    # Its largest entry is C(n, w), the level's own size.
    table = np.ones((n - w + 2, w + 1), dtype=np.int64)
    table[0] = 0
    for k in range(1, w + 1):
        table[1:, k] = np.cumsum(table[1:, k - 1])
    i = np.arange(w)
    return table[-1, w] - 1 - table[n - w + 1 + i - sets, w - i].sum(axis=1)


def check_budget(count: int, budget: int, stage: str, scope: str = "") -> None:
    """Refuse a stage that would visit ``count`` share sets over ``budget``."""
    if count > budget:
        # From 2**64 on, the power of 2 it reaches: no huge int goes to decimal.
        sets = count if count < 1 << 64 else f"at least 2**{count.bit_length() - 1}"
        raise BudgetExceededError(
            f"enumeration limit: {sets} share sets{scope} exceed budget {budget} ({stage})"
        )


class ShareStructure:
    """Ranks of column-restricted check matrices, kept one size at a time."""

    def __init__(self, p: int, check_matrix: np.ndarray):
        h = gfp.as_matrix(check_matrix, p)
        self.p, self.n, self.num_checks = p, qudit_count(h), h.shape[0]
        # Row c of the transpose is column c of H: stacking rows selects a
        # share set's columns, and the transpose has the same rank.  Entries
        # are below 7, so a uint8 gather feeds the narrow kernels directly.
        self._columns = h.T.astype(np.uint8, order="C")
        # What the kernels gather from: one matrix's columns on a leading axis.
        self._checks = self._narrow(self._columns[None])
        self._sets: dict[int, np.ndarray] = {}
        self._levels: dict[int, np.ndarray] = {0: np.zeros(1, dtype=np.int64)}

    def _narrow(self, columns: np.ndarray) -> np.ndarray:
        """Columns as the kernels take them: at p = 2 each one a row of
        uint64 words, a bit per entry; at odd p as they are."""
        return gfp.pack_bits(columns) if self.p == 2 else columns

    @functools.cached_property
    def _with_normalizer(self) -> np.ndarray:
        """H's columns and G's, stacked as ``_checks`` holds H's alone, each
        zero-padded to the longer: G generates the normalizer, 2n - r rows."""
        h = self._columns.T.astype(np.int64)
        g = gfp.kernel(orthogonality_rows(h, self.p), self.p).T
        both = np.zeros((2, 2 * self.n, max(h.shape[0], g.shape[1])), dtype=np.uint8)
        both[0, :, : h.shape[0]] = self._columns
        both[1, :, : g.shape[1]] = g
        return self._narrow(both)

    def sets(self, w: int) -> np.ndarray:
        """``share_sets(n, w)``, listed once and kept beside ``level(w)``:
        from the kept size w - 1 when there are at least
        :data:`LIST_FROM_BELOW` sets, else directly."""
        if w not in self._sets:
            below = self._sets.get(w - 1)
            if below is not None and math.comb(self.n, w) >= LIST_FROM_BELOW:
                self._sets[w] = _extended(below, self.n)
            else:
                self._sets[w] = share_sets(self.n, w)
        return self._sets[w]

    def level(self, w: int) -> np.ndarray:
        """r_E of every w-set, in :func:`share_sets` order; ranked once and kept."""
        if w not in self._levels:
            self._levels[w] = self._eliminate(self.sets(w), False)[0]
        return self._levels[w]

    def table(self) -> None:
        """Keep every size 0..n, for a stabilizer's check matrix (independent,
        commuting rows).

        Each size w < n/2 is ranked on H and G in one elimination per chunk,
        and size n - w is filled as ``r - 2w + g_E``, reversed; the sizes
        left, the middle size of an even n among them, are ranked on H
        alone.  A stacked size with some ``g_E - r_E`` outside ``0..2k``
        raises :class:`InvariantError`.
        """
        n, r = self.n, self.num_checks
        self._levels[n] = np.full(1, r, dtype=np.int64)
        # Stacked, sizes w and n - w take 2w elimination steps; on H alone
        # they take min(2w, r) + r, no more once w >= r (rowless codes).
        for w in range(1, min(r, (n + 1) // 2)):
            inside, normal = self._eliminate(self.sets(w), False, self._with_normalizer)
            gap = normal - inside
            if gap.min() < 0 or gap.max() > 2 * (n - r):
                raise InvariantError(
                    f"normalizer rank minus check rank of a {w}-set leaves 0..{2 * (n - r)}"
                )
            self._levels[w] = inside
            self._levels[n - w] = (r - 2 * w + normal)[::-1]
        for w in range(1, n):
            self.level(w)

    def ranks(self, sets) -> np.ndarray:
        """r_E of each of m sorted w-sets, given as an ``(m, w)`` array or a
        list of m tuples: read from a kept level by row index, else eliminated."""
        sets = np.asarray(sets, dtype=np.intp)
        if sets.shape[1] not in self._levels:
            return self._eliminate(sets, False)[0]
        return self._levels[sets.shape[1]][_row_index(sets, self.n)]

    def complement_ranks(self, sets) -> np.ndarray:
        """r_E' of each of m sorted w-sets, given as for :meth:`ranks`."""
        sets = np.asarray(sets, dtype=np.intp)
        if self.n - sets.shape[1] not in self._levels:
            return self._eliminate(sets, True)[0]
        return self._levels[self.n - sets.shape[1]][::-1][_row_index(sets, self.n)]

    def pair(self, sets) -> tuple[int, np.ndarray, np.ndarray]:
        """(w, r_E, r_E') of m sorted w-sets, given as for :meth:`ranks`.

        Row i of level w and row C(n, w) - 1 - i of level n - w are
        complements, so when both levels are kept one row index reads both."""
        sets = np.asarray(sets, dtype=np.intp)
        w = sets.shape[1]
        if w in self._levels and self.n - w in self._levels:
            rows = _row_index(sets, self.n)
            return w, self._levels[w][rows], self._levels[self.n - w][::-1][rows]
        return w, self.ranks(sets), self.complement_ranks(sets)

    def _eliminate(
        self, sets: np.ndarray, outside: bool, source: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """r_E of each row, or r_E' if ``outside``, in chunks of at most
        :data:`CHUNK_ENTRIES` entries: one row of ranks for each matrix whose
        columns ``source`` stacks, H's alone (``_checks``) unless given."""
        source = self._checks if source is None else source
        count, w = sets.shape
        size = self.n - w if outside else w
        per_set = (self.n if outside else 0) + 2 * size * (1 + source.shape[0] * source.shape[2])
        step = max(1, CHUNK_ENTRIES // max(1, per_set))
        out = np.empty((source.shape[0], count), dtype=np.int64)
        for start in range(0, count, step):
            chunk = sets[start : start + step]
            if outside:
                member = np.zeros((len(chunk), self.n), dtype=bool)
                member[np.arange(len(chunk))[:, None], chunk - 1] = True
                chunk = np.nonzero(~member)[1].reshape(len(chunk), size) + 1
            out[:, start : start + step] = self._chunk_ranks(chunk, source)
        return out

    def _chunk_ranks(self, sets: np.ndarray, source: np.ndarray) -> np.ndarray:
        """For the rows of one chunk of equally sized sets, the rank of each
        matrix whose columns ``source`` stacks, one row per matrix: every
        matrix's sets go along one batch."""
        owned = owned_columns(sets, self.n)
        halves, _, entries = source.shape
        stack = np.take(source, owned, axis=1).reshape(halves * len(sets), owned.shape[1], entries)
        ranks = gfp.packed_rank(stack) if self.p == 2 else gfp.batched_rank(stack, self.p)
        return ranks.reshape(halves, len(sets))

    def smallest_size(
        self,
        holds: Callable[[int, np.ndarray, np.ndarray], bool],
        last: int,
        stage: str,
        budget: int,
    ) -> Optional[int]:
        """The first share-set size w <= last at which ``holds`` is true.

        Sizes w = 1, 2, ... are visited in turn; ``holds(w, sets(w), level(w))``
        sees every w-set and its r_E.  Before each size the share sets visited
        so far, that size included, are checked against ``budget``, and a
        refusal names ``stage``.  Returns None when no size up to ``last`` does.
        """
        visited = 0
        for w in range(1, last + 1):
            visited += math.comb(self.n, w)
            check_budget(visited, budget, stage, f" up to size {w}")
            if holds(w, self.sets(w), self.level(w)):
                return w
        return None

    def correctable(self, w: int, inside: np.ndarray, outside: np.ndarray) -> np.ndarray:
        """2|E| - r_E == r - r_E': every dual vector inside E is a check."""
        return 2 * w - inside == self.num_checks - outside

    def label_codes(self, w: int, inside: np.ndarray, outside: np.ndarray) -> np.ndarray:
        """Access label of each w-set from its r_E and r_E', as its index in
        :class:`AccessLabel`: 0 qualified (even if forbidden), 1 forbidden, 2 intermediate."""
        forbidden = self.correctable(w, inside, outside)
        return (2 - forbidden) * ~self.correctable(self.n - w, outside, inside)

    def labels(self, w: int, inside: np.ndarray, outside: np.ndarray) -> list[AccessLabel]:
        """Access label of each w-set from its r_E and r_E'."""
        return [_LABELS[c] for c in self.label_codes(w, inside, outside).tolist()]

    def mutual_information(self, w: int, inside: np.ndarray, outside: np.ndarray) -> np.ndarray:
        """I(R:A) in units of log p of each w-set A from its r_A and r_A'."""
        # k + 2|A| - n = 2|A| - r.
        return 2 * w - self.num_checks + outside - inside
