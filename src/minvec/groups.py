"""Finite quotients of the compact groups attached to an induction datum.

Subgroups are realized as explicit element sets inside GL_n(Z/p^L), where
the level L is chosen so that 1 + p^L M_n(O) is contained in every subgroup
of interest; images mod p^L are then faithful and all character identities
can be checked exhaustively on the quotient.  For a datum of depth j over
a period-e order the right level is ceil(j/e) + 1: the congruence subgroup
of that level sits inside U_A(j+1), on which every simple character dies.

Characters are stored as exponent tables (values e^{2 pi i t} with t a
p-power-denominator rational), so every verification below is an integer
congruence and "equal" always means exactly equal.

An enumerated group is built from its sorted, distinct codes, and its
elements are in code order.  Every product that is looked up in a group
goes through one chunked kernel, product_index: the generator tree, the
cosets, the character extension, the commutators of J^1/H^1's basis, on
which heisenberg reads the pairing theta([x, y]) once, and the
intertwining scan are all calls of it.  J^1 itself is never listed.

The Heisenberg representation eta = Ind theta~ is never tabulated: its
laws follow by Mackey's formula from premises that heisenberg and
extend_and_induce certify.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, ConstructionFailure, DatumInvalid
from .orders import HereditaryOrder, InductionDatum, fp_reduce
from . import residues
from .residues import (Draws, box_enumerate, chunk_rows, contains_codes,
                       det_inv_mod, distinct_codes, pack, pack_mod,
                       row_blocks, sample_units_outside, sorted_index,
                       sorted_unique, unit_codes, unpack)


def gl_order(n: int, p: int, L: int) -> int:
    """|GL_n(Z/p^L)| exactly."""
    count = 1
    for i in range(n):
        count *= p ** n - p ** i
    return count * p ** (n * n * (L - 1))


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------

@dataclass
class CharacterCertificate:
    """What the generator relations proved about an exponent table."""

    multiplicative: bool
    witness: tuple | None         # generator pair (i, s) where it fails
    coords_additive: bool | None  # None when no coordinates were checked


class FiniteSubgroup:
    """An explicit subgroup of GL_n(Z/p^L).

    Either enumerated from its sorted, distinct codes (their matrices are
    unpacked once, in code order, when first read), or a sumset (sorted
    class codes mod steps, see sumset_classes), or given by a membership
    predicate with a size formula; the last two are never listed.
    """

    def __init__(self, name, p, level, n, codes=None, membership=None,
                 size=None, sumset=None):
        self.name = name
        self.p = p
        self.level = level
        self.n = n
        self.membership = membership
        self.classes, self.steps = sumset or (None, None)
        if codes is not None:
            self.codes = np.asarray(codes, dtype=np.int64)
            self.size = len(self.codes)
            self._tree = None
        else:
            self.codes = None
            if sumset is not None:
                size = len(self.classes) * math.prod(
                    (self.modulus // self.steps).ravel().tolist())
            if size is None:
                raise ValueError("membership-only subgroups need a size formula")
            self.size = size

    @property
    def modulus(self):
        return self.p ** self.level

    @functools.cached_property
    def mats(self):
        """The (size, n, n) elements in code order, or None unless
        enumerated."""
        return None if self.codes is None else unpack(self.codes, self.p,
                                                      self.level, self.n)

    def member_mask(self, mats) -> np.ndarray:
        """Membership of each matrix of an (M, n, n) residue stack.

        A predicate gets the stack reduced mod p^L.  An enumerated group or
        a sumset reduces and packs it one row block at a time (pack_mod),
        so beside the stack only its codes and one block's reduced copy
        are held."""
        if self.membership is not None:
            return self.membership(np.asarray(mats, dtype=np.int64)
                                   % self.modulus)
        codes, moduli = (self.classes, self.steps) if self.codes is None \
            else (self.codes, self.modulus)
        return contains_codes(codes, pack_mod(mats, self.p, self.level,
                                              moduli))

    def draw(self, rng: Draws, count: int) -> np.ndarray:
        """count seeded members of a sumset, uniform: a class, then an
        element of the box, as a (count, n, n) stack."""
        counts = (self.modulus // self.steps).ravel()
        cls = rng.integers(0, len(self.classes), size=count)
        box = rng.integers(0, math.prod(counts.tolist()), size=count)
        digits = np.stack(np.unravel_index(box, counts), axis=1)
        return (unpack(self.classes[cls], self.p, self.level, self.n)
                + self.steps * digits.reshape(-1, self.n, self.n))

    def index_of_codes(self, codes):
        return sorted_index(self.codes, codes)

    def identity_index(self) -> int:
        ident = np.eye(self.n, dtype=np.int64)
        idx = int(self.index_of_codes(pack(ident[None], self.p, self.level))[0])
        if idx < 0:
            raise ConstructionFailure(f"{self.name} does not contain the identity")
        return idx

    def _generator_tree(self):
        """(root, perms), memoized: perms[t][i] is the index of g_i s for the
        t-th greedily chosen generator s = g_(perms[t][root]).  Every perm
        is a permutation of the set and a breadth-first search from the
        identity through them reaches every element, so the set is a group
        and every element is a word in the generators."""
        if self._tree is None:
            root = self.identity_index()
            reached = np.zeros(self.size, dtype=bool)
            reached[root] = True
            perms = []
            while not reached.all():
                s = int(np.argmin(reached))
                perm = product_index(self, self.mats, self.mats[s:s + 1])[:, 0]
                if np.any(perm < 0):
                    raise ConstructionFailure(
                        f"{self.name} is not closed under products "
                        f"(witness indices {int(np.argmax(perm < 0))}, {s})")
                if np.any(np.bincount(perm, minlength=self.size) != 1):
                    raise ConstructionFailure(
                        f"{self.name}: right multiplication by element {s} "
                        "is not a bijection")
                perms.append(perm)
                frontier = np.flatnonzero(reached)
                while len(frontier):
                    step = np.zeros(self.size, dtype=bool)
                    for perm in perms:
                        step[perm[frontier]] = True
                    frontier = np.flatnonzero(step & ~reached)
                    reached[frontier] = True
            self._tree = root, perms
        return self._tree


def product_index(target: FiniteSubgroup, left, mid, right=None) -> np.ndarray:
    """Index in target's sorted codes of left[a] mid[b] right[a] mod p^L,
    or of left[a] mid[b] when right is None, for every a and b: a
    (len(left), len(mid)) array, -1 where the product is not in target.

    The one product scan of this module.  A block of left (and right) rows
    is broadcast against a block of mid, and the products are packed and
    binary-searched; the blocks are sized so that one block's temporaries,
    two product stacks and the lookup's code, position and index per pair,
    stay in CHUNK_BYTES.
    """
    p, L, n, mod = target.p, target.level, target.n, target.modulus
    out = np.empty((len(left), len(mid)), dtype=np.intp)
    pair_bytes = 8 * (2 * n * n + 3)
    cols = max(1, min(len(mid), chunk_rows(pair_bytes)))
    rows = chunk_rows(pair_bytes * cols)
    for a in range(0, len(left), rows):
        for b in range(0, len(mid), cols):
            prods = left[a:a + rows, None] @ mid[b:b + cols]
            prods %= mod
            if right is not None:
                prods = prods @ right[a:a + rows, None]
                prods %= mod
            out[a:a + rows, b:b + cols] = target.index_of_codes(
                pack(prods.reshape(-1, n, n), p, L)).reshape(prods.shape[:2])
    return out


def sumset_classes(o: HereditaryOrder, k: int, units, p: int, L: int):
    """(classes, steps) of units * U_A(k) mod p^L, k >= 1: the sorted codes
    of the units mod B^k and the entrywise p-powers that cut out B^k.

    B^k is a two-sided ideal of A and the units lie in A^*, so
    l U_A(k) = l + B^k: the set is the classes of the units mod B^k plus
    the lattice box B^k, every element once, and g lies in it exactly when
    g mod steps is one of the classes.
    """
    n = o.n
    steps = np.array([[p ** min(L, max(0, o.entry_threshold(k, r, c)))
                       for c in range(n)] for r in range(n)], dtype=np.int64)
    classes = distinct_codes(units, p, L, steps)
    return classes, steps


def unit_sumset(o: HereditaryOrder, k: int, units, p: int, L: int,
                budget: int = 2_000_000) -> np.ndarray:
    """The sorted codes of units * U_A(k) mod p^L.  Its size is known, and
    held to the budget, before anything is allocated.  The codes are
    distinct: an entry below its step plus a multiple of the step below
    p^L packs without carries, and each residue splits so in one way."""
    n = o.n
    mod = p ** L
    classes, steps = sumset_classes(o, k, units, p, L)
    counts = (mod // steps).ravel().tolist()
    size = len(classes) * math.prod(counts)
    if size > budget:
        raise BudgetExceeded(f"{size} elements mod p^{L}: {len(classes)} "
                             f"classes mod B^{k} times {math.prod(counts)}",
                             estimate=size)
    box = box_enumerate([0] * (n * n), steps.ravel().tolist(), counts, mod)
    return np.sort((classes[:, None] + pack(box.reshape(-1, n, n), p, L)
                    ).ravel())


def enumerate_field_order(d: InductionDatum, L: int):
    """O_L mod p^L as the span of powers of the integral generator.

    Returns (codes, is_unit_mask, in_UL1_mask), the codes sorted.
    """
    p, n, o = d.p, d.order.n, d.order
    mod = p ** L
    bt = np.array(d.beta_integral, dtype=np.int64)
    powers = [np.eye(n, dtype=np.int64)]
    for _ in range(n - 1):
        powers.append(powers[-1] @ bt % mod)
    coeffs = box_enumerate([0] * n, [1] * n, [mod] * n, mod)
    codes = sorted_unique(pack(np.einsum("mc,cij->mij", coeffs, powers) % mod,
                               p, L))
    if len(codes) != len(coeffs):
        raise ConstructionFailure("power basis of O_L is not free mod p^L")
    mats = unpack(codes, p, L, n)
    # unit iff invertible iff not in the radical: grade-0 part nonzero
    unit = np.zeros(len(mats), dtype=bool)
    ul1 = np.ones(len(mats), dtype=bool)
    ident = np.eye(n, dtype=np.int64)
    for r in range(n):
        for c in range(n):
            # p^0 = 1 divides everything: a grade-0 position adds nothing
            q = p ** min(max(0, o.entry_threshold(1, r, c)), L)
            unit |= mats[:, r, c] % q != 0
            ul1 &= (mats[:, r, c] - ident[r, c]) % q == 0
    return codes, unit, ul1


@dataclass
class SubgroupBundle:
    """Explicit subgroup family of one supercuspidal datum at one level.

    The noncompact group J = L^* U_A(floor((j+1)/2)) is never materialized:
    its compact part J cap K, and J^1 at even depth, are sumsets, decided by
    a class lookup and never listed; the powers of a prime element of L
    grade the cosets J / (J cap K).  ua holds only U_A(floor(j/2)+1), the
    base of the simple character, and U_A(j+1), on which it must be trivial.
    """

    datum: InductionDatum
    level: int
    ua: dict
    ul1: FiniteSubgroup
    ol_units: FiniteSubgroup
    h1: FiniteSubgroup
    j1: FiniteSubgroup
    jcapk: FiniteSubgroup


def build_subgroups(d: InductionDatum,
                    budget: int = 2_000_000) -> SubgroupBundle:
    """Element lists for U_A(floor(j/2)+1), U_A(j+1), U_L(1) and H^1, and
    the sumsets J cap K and, at even depth, J^1, mod p^level.  O_L, a
    p^(nL) box, is built and checked first, so a datum whose power basis is
    not free fails before any U_A(i) is listed."""
    from .orders import is_minimal
    if not is_minimal(d):
        raise DatumInvalid("subgroup construction requires a minimal datum")
    o, p, j = d.order, d.p, d.j
    L = d.group_level
    ol_codes, unit_mask, ul1_mask = enumerate_field_order(d, L)
    ul1 = FiniteSubgroup("U_L(1)", p, L, o.n, ol_codes[ul1_mask])
    ol_units = FiniteSubgroup("O_L^*", p, L, o.n, ol_codes[unit_mask])
    ident = np.eye(o.n, dtype=np.int64)[None]
    ua = {i: FiniteSubgroup(f"U_A({i})", p, L, o.n,
                            unit_sumset(o, i, ident, p, L, budget))
          for i in sorted({j // 2 + 1, j + 1})}
    half_high = (j + 1) // 2     # J^1 congruence part
    h1 = FiniteSubgroup("H1", p, L, o.n,
                        unit_sumset(o, j // 2 + 1, ul1.mats, p, L, budget))
    # at odd depth ceil(j/2) = floor(j/2) + 1: J^1 is H^1, listed once
    j1 = h1 if j % 2 else FiniteSubgroup(
        "J1", p, L, o.n, sumset=sumset_classes(o, half_high, ul1.mats, p, L))
    jcapk = FiniteSubgroup("JcapK", p, L, o.n, sumset=sumset_classes(
        o, half_high, ol_units.mats, p, L))
    return SubgroupBundle(d, L, ua, ul1, ol_units, h1, j1, jcapk)


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

class GroupCharacter:
    """A character of an enumerated subgroup, stored as exponent numerators
    over a common p-power denominator.  src/ builds one only from a table
    that extend_character certified multiplicative (simple_character,
    extend_and_induce), so no later use decides a character law again."""

    def __init__(self, domain: FiniteSubgroup, nums, denom: int):
        self.domain = domain
        self.nums = np.asarray(nums, dtype=np.int64) % denom
        self.denom = denom

    def nums_of_residues(self, mats) -> np.ndarray:
        """Exponent numerators over denom for an (M, n, n) residue stack
        inside the domain."""
        dom = self.domain
        return self.restricted_nums(pack_mod(mats, dom.p, dom.level,
                                             dom.modulus))

    def restricted_nums(self, codes):
        idx = self.domain.index_of_codes(codes)
        if np.any(idx < 0):
            raise KeyError("element outside the character domain")
        return self.nums[idx]


def formula_exponent_nums(d: InductionDatum, mats: np.ndarray, denom: int):
    """Exponents of psi(Tr(beta (x - 1))) for integral residue matrices:
    Tr(beta' (x - 1)) mod p^(s0+1), beta' = p^s0 beta, over denom."""
    bt = np.array(d.beta_integral, dtype=np.int64)
    tr = np.einsum("ij,mji->m", bt, mats - np.eye(d.order.n, dtype=np.int64))
    pmod = d.p ** (d.s0 + 1)
    return tr % pmod * (denom // pmod) % denom


def _relation_witness(sub: FiniteSubgroup, table, m: int):
    """(i, s) with table(g_i g_s) != table(g_i) + table(g_s) mod m, over the
    generators s of sub's tree, or None when the table is a homomorphism."""
    root, perms = sub._generator_tree()
    table = np.asarray(table, dtype=np.int64)
    if table[root] % m:
        return root, root
    for perm in perms:
        s = int(perm[root])
        bad = (table[perm] - table - table[s]) % m != 0
        if bad.any():
            return int(np.argmax(bad)), s
    return None


def verify_character(sub: FiniteSubgroup, nums, denom: int, coords=None,
                     coord_orders=None) -> CharacterCertificate:
    """Decide on generators whether an exponent table is multiplicative and,
    optionally, whether the coset coordinates (which certify the count of
    character extensions) add, each mod its own order.

    The generator tree certifies that sub is a group whose elements are
    words in the generators s, with right multiplications R_s.  A table f
    is then a homomorphism exactly when f(I) = 0 and f(g s) = f(g) + f(s)
    for every g and s: induct on the length of a word for h to get
    f(g h) = f(g) + f(h).  So |G| |S| lookups decide every pair.
    """
    witness = _relation_witness(sub, nums, denom)
    coords_ok = None if coords is None else all(
        _relation_witness(sub, c, m) is None
        for c, m in zip(np.asarray(coords).T, coord_orders))
    return CharacterCertificate(witness is None, witness, coords_ok)


@dataclass
class ExtensionData:
    """A character of a group built by extending one from a subgroup."""

    nums: np.ndarray
    denom: int
    coords: np.ndarray          # per element, exponents of the coset generators
    orders: list                # relative orders of the generators
    count: int                  # number of extensions (certified)


def extend_character(group: FiniteSubgroup, sub_codes, sub_nums, denom: int,
                     denom_hint=None) -> ExtensionData:
    """All extensions of a character to a finite overgroup, one chosen.

    The character is given at the subgroup's codes as exponent numerators
    over denom.  Each new coset generator g is the first unassigned element
    in code order.  With m its relative order over the assigned subgroup A,
    the chosen extension takes t = f(g^m)/m mod 1 at g and f(a) + c t at
    g^c a for c < m; numerators stay unreduced mod 1 over a denominator
    that grows when m does not divide f(g^m).  The cosets g^c A must be
    disjoint from A, else nothing is written and ConstructionFailure is
    raised.  The count of extensions is the index, certified by
    verify_character: multiplicativity and additivity of the coset
    coordinates, both decided on the generators of the group.
    """
    group._generator_tree()     # certifies closure: no product below leaves
    sub_idx = group.index_of_codes(np.asarray(sub_codes, dtype=np.int64))
    if np.any(sub_idx < 0):
        raise ConstructionFailure(f"the subgroup is not inside {group.name}")
    assigned = np.zeros(group.size, dtype=bool)
    assigned[sub_idx] = True
    nums = np.zeros(group.size, dtype=np.int64)
    nums[sub_idx] = sub_nums
    coords = np.zeros((group.size, 0), dtype=np.int64)
    gens, orders = [], []
    while not assigned.all():
        gens.append(int(np.argmin(assigned)))
        g = group.mats[gens[-1]]
        powers = [np.eye(group.n, dtype=np.int64)]  # g^c for c < m
        for _ in range(group.size):
            at = int(product_index(group, powers[-1][None], g[None])[0, 0])
            if assigned[at]:
                break
            powers.append(group.mats[at])
        else:
            raise ConstructionFailure(
                f"no power of an element of {group.name} is in the subgroup")
        m = len(powers)
        scale = m // math.gcd(int(nums[at]), m)
        denom *= scale
        nums *= scale
        t = int(nums[at]) // m % denom
        # the cosets g^c A, 0 < c < m
        base = np.flatnonzero(assigned)
        new = product_index(group, np.array(powers[1:]), group.mats[base])
        # g^c a = g^c' a' with c > c' would put g^(c-c') a in A, so
        # cosets disjoint from A are disjoint from each other
        if assigned[new].any():
            raise ConstructionFailure(
                f"cosets g^c A of {group.name} overlap at generator "
                f"{gens[-1]}: A is not a group that g normalizes")
        c = np.arange(1, m)[:, None]
        nums[new] = nums[base] + c * t
        coords = np.column_stack([coords, np.zeros(group.size, np.int64)])
        coords[new] = coords[base]
        coords[new, -1] = c
        assigned[new] = True
        orders.append(m)
    # the least common denominator of the values, then the hint
    reduced = denom // math.gcd(denom, int(np.gcd.reduce(nums)))
    final = math.lcm(reduced, denom_hint) if denom_hint else reduced
    nums = nums // (denom // reduced) * (final // reduced) % final
    cert = verify_character(group, nums, final, coords=coords,
                            coord_orders=orders)
    if not cert.multiplicative:
        raise ConstructionFailure(
            f"no multiplicative extension found on {group.name}; "
            f"f(g_i g_s) != f(g_i) + f(g_s) at generator pair (i, s) = "
            f"{cert.witness}")
    # unless coordinates add, count only the verified base extension
    count = math.prod(orders) if cert.coords_additive else 1
    return ExtensionData(nums, final, coords, orders, count)


@dataclass
class SimpleCharacterResult:
    theta: GroupCharacter
    extension_count: int
    denom: int
    trivial_level: int


def simple_character(d: InductionDatum, bundle: SubgroupBundle) -> SimpleCharacterResult:
    """The simple character theta on H^1: psi(Tr(beta(x-1))) on the
    congruence part U_A(floor(j/2)+1), extended multiplicatively to all of
    H^1.  The formula is theta's restriction, so H^1's certificate decides
    it too: a formula that is no character fails in extend_character."""
    p, j = d.p, d.j
    base = bundle.ua[j // 2 + 1]
    denom0 = p ** (d.s0 + 1)
    base_nums = formula_exponent_nums(d, base.mats, denom0)
    ext = extend_character(bundle.h1, base.codes, base_nums, denom0,
                           denom_hint=denom0)
    theta = GroupCharacter(bundle.h1, ext.nums, ext.denom)
    # triviality on U_A(j+1)
    top = bundle.ua[j + 1]
    tnums = theta.restricted_nums(top.codes)
    if np.any(tnums % ext.denom != 0):
        raise ConstructionFailure("theta is not trivial on U_A(j+1)")
    return SimpleCharacterResult(theta, ext.count, ext.denom, j + 1)


# ---------------------------------------------------------------------------
# Heisenberg polarization
# ---------------------------------------------------------------------------

@dataclass
class PolarizationData:
    trivial: bool
    reason: str
    dim: int
    coset_reps: np.ndarray | None
    pairing: list | None
    isotropic: list | None
    b1: FiniteSubgroup


def _coset_decomposition(group: FiniteSubgroup, small_mats):
    """Left cosets g S of an enumerated subgroup S (given by its matrices)
    inside an enumerated group; returns (rep_indices, coset_id aligned to
    the group's codes).

    A coset is keyed by its first element in code order, which is its
    representative, and cosets are numbered in that order.  Each pass walks
    the group's codes in row blocks; in a block it unpacks every |S|-th
    free element, multiplies these candidates by S and assigns every coset
    they reach.  Only the codes and the keys, which become the coset ids
    in place, span the group; no element but a candidate is unpacked.
    """
    p, L, n, m = group.p, group.level, group.n, len(small_mats)
    first = np.full(group.size, -1, dtype=np.intp)
    # a block's free indices, keys and candidates
    blocks = row_blocks(group.size, 8 * (2 + n * n))
    while not np.all(first >= 0):
        for blk in blocks:
            free = blk.start + np.flatnonzero(first[blk] < 0)
            idx = product_index(group, unpack(group.codes[free[::m]], p, L, n),
                                small_mats)
            if np.any(idx < 0):
                raise ConstructionFailure("coset leaves the overgroup")
            first[idx] = idx.min(axis=1, keepdims=True)
    # a representative is its own key
    reps = np.concatenate([blk.start + np.flatnonzero(
        first[blk] == np.arange(blk.start, blk.stop)) for blk in blocks])
    for blk in blocks:
        first[blk] = np.searchsorted(reps, first[blk])
    return reps, first


def heisenberg(d: InductionDatum, bundle: SubgroupBundle,
               theta: GroupCharacter, budget: int) -> PolarizationData:
    """Polarize J^1/H^1 for the commutator pairing (x, y) -> theta([x, y]),
    [x, y] = x y x^-1 y^-1, read once on a basis x_a of the quotient.

    For odd depth J^1 = H^1 and the uniform convention B^1 = H^1 applies;
    the returned data is flagged trivial.  At depth j = 2m J^1 is never
    listed: J^1/H^1 is B^m/B^(m+1), a digit y_rc / p^t mod p per graded
    position (r, c, t) of grade m, modulo the digits of U_L(1) cap U_A(m).
    In graded order, each position whose unit vector extends their span
    gives an x_a = I + p^t E_rc.  By integer threshold facts J^1/H^1 is
    elementary abelian: x^p lies in U_A(m+1) and [U_A(m), U_A(m)] in
    U_A(2m), inside H^1, and U_L(1) normalizes U_A(m).  So H^1 and the x_a
    generate J^1 exactly when p^dim |H^1| = |J^1|, dim > 0: sumset sizes.

    The x_a normalize H^1 and fix theta, decided by _fixed_on_generators,
    and so does J^1.  Stability is the premise that makes theta([x, y])
    a form on J^1/H^1: theta([h, y]) = theta(h) - theta(y h y^-1) = 0 for h
    in H^1, and [x x', y] = x [x', y] x^-1 [x, y] makes it biadditive; with
    x' = h that is coset invariance, [x h, y] = x [h, y] x^-1 [x, y].  It is
    alternating, theta([x, x]) = theta(1), and [y, x] = [x, y]^-1, and
    F_p-valued: p theta([x, y]) = theta([x^p, y]) = 0.  So the pairing is
    <x_a, x_b> = p t, theta([x_a, x_b]) = e^{2 pi i t}.

    B^1 is the preimage H^1 lift(W) = U_L(1) lift(W) U_A(m+1) of a
    Lagrangian W, lift(w) = I + sum w_a (x_a - I): a sumset within the
    budget, certified a group by extend_and_induce's generator tree.
    """
    p, n, L = d.p, d.order.n, bundle.level
    h1, j1, ul1 = bundle.h1, bundle.j1, bundle.ul1
    if d.j % 2 == 1:
        return PolarizationData(
            trivial=True, reason="J1 == H1 at odd depth; take B1 = H1",
            dim=0, coset_reps=None, pairing=None, isotropic=None, b1=h1)
    m, ident = d.j // 2, np.eye(n, dtype=np.int64)
    rs, cs, ts = (np.array(v) for v in zip(*d.order.graded_positions(m)))
    ua_m = FiniteSubgroup(f"U_A({m})", p, L, n, sumset=sumset_classes(
        d.order, m, ident[None], p, L))
    inter = (ul1.mats[ua_m.member_mask(ul1.mats)] - ident) % p ** L
    span, extends = [], []
    # the distinct digit rows, as base-p numbers
    place = p ** np.arange(len(rs) - 1, -1, -1)
    digits = sorted_unique(inter[:, rs, cs] // p ** ts % p @ place)
    for vec in ((digits[:, None] // place % p).tolist()
                + np.eye(len(rs), dtype=np.int64).tolist()):
        residual = fp_reduce(vec, span, p)[0]
        extends.append(any(residual))
        if extends[-1]:
            span.append(residual)
    x = np.repeat(ident[None], len(rs), axis=0)
    x[np.arange(len(rs)), rs, cs] += p ** ts
    x = x[np.array(extends[-len(rs):])]
    dim = len(x)
    if dim == 0 or p ** dim * h1.size != j1.size:
        raise ConstructionFailure(f"p^{dim} |H1| != |J1| = {j1.size}: the "
                                  "graded basis does not generate J1/H1")
    xi = det_inv_mod(x, p, L)[1]
    if not _fixed_on_generators(x, xi, theta).all():
        raise ConstructionFailure("theta is not J1-stable")

    # [x_a, x_b] = (x_a x_b)(x_a^-1 x_b^-1), one basis pair per row
    comm = product_index(
        h1, (x[:, None] @ x[None] % h1.modulus).reshape(-1, n, n), ident[None],
        (xi[:, None] @ xi[None] % h1.modulus).reshape(-1, n, n))
    pairing = (theta.nums[comm].reshape(dim, dim) * p // theta.denom).tolist()

    iso_vecs = _symplectic_isotropic_basis(pairing, p)
    w = np.array(list(itertools.product(range(p), repeat=len(iso_vecs))))
    lifts = ident + np.einsum("wa,aij->wij", w @ iso_vecs % p, x - ident)
    units = (ul1.mats[:, None] @ lifts[None]).reshape(-1, n, n)
    b1 = FiniteSubgroup("B1", p, L, n,
                        unit_sumset(d.order, m + 1, units, p, L, budget))
    return PolarizationData(
        trivial=False, reason="", dim=dim, coset_reps=x, pairing=pairing,
        isotropic=iso_vecs, b1=b1)


def _symplectic_isotropic_basis(pairing, p):
    """Basis of a maximal isotropic subspace via symplectic reduction.

    Each step takes a hyperbolic pair (e, f) and moves the vectors left
    into its orthogonal; w -> w - <w, f> e + <w, e> f keeps them
    independent.  An alternating form of rank 2r < dim leaves vectors
    that pair to 0 with everything left, and the reduction raises there.
    """
    dim = len(pairing)

    def form(u, v):
        return sum(u[a] * pairing[a][b] * v[b] for a in range(dim)
                   for b in range(dim)) % p

    isotropic = []
    remaining = [[int(i == j) for j in range(dim)] for i in range(dim)]
    while 2 * len(isotropic) < dim:
        e = remaining[0]
        partner = next((w for w in remaining[1:] if form(e, w)), None)
        if partner is None:
            raise ConstructionFailure(
                "degenerate pairing: datum is non-minimal or ill-formed")
        c = pow(form(e, partner), -1, p)
        f = [(v * c) % p for v in partner]   # <e, f> = 1
        isotropic.append(e)
        rest = []
        for w in remaining[1:]:
            if w is not partner:
                wf, we = form(w, f), form(w, e)
                # w - <w,f> e + <w,e> f pairs to zero with both e and f
                rest.append([(wi - wf * ei + we * fi) % p
                             for wi, ei, fi in zip(w, e, f)])
        remaining = rest
    return isotropic


# ---------------------------------------------------------------------------
# Heisenberg extension and the laws of eta
# ---------------------------------------------------------------------------

@dataclass
class InducedResult:
    theta_tilde: GroupCharacter
    tilde_count: int
    dim: int


def extend_and_induce(bundle: SubgroupBundle, theta: GroupCharacter,
                      pol: PolarizationData) -> InducedResult:
    """Extend theta to B^1 and derive the laws of eta = Ind theta~ from
    B^1 to J^1 by Mackey's formula.

    At odd depth B^1 = J^1 = H^1 and eta = theta, a character that
    simple_character certified: dim 1, <eta, eta> = 1, eta|H^1 = theta.
    At even depth the laws rest on premises certified here or before:
    - theta~ is a character of the group B^1 extending theta
      (extend_character), and B^1/H^1 = W for a Lagrangian W of the
      nondegenerate pairing (heisenberg), so W = W^perp; dim = [J^1 : B^1]
      with dim^2 = [J^1 : H^1] confirms the sizes.
    - J^1 normalizes H^1 and fixes theta (heisenberg).  So t^-1 h t lies
      in H^1 with theta value theta(h): eta|H^1 = dim theta and
      <eta|H^1, theta> = dim.
    - The pairing is theta([x, y]), [x, y] = x y x^-1 y^-1, biadditive on
      J^1/H^1 by stability (heisenberg).  J^1/H^1 is abelian, so B^1 is
      normal and theta~(t b t^-1) = theta([t, b]) theta~(b).  By Mackey,
      <eta, eta> counts the t in J^1/B^1 that fix theta~, those pairing to
      0 with W: t in W^perp = W, so only t in B^1, and <eta, eta> = 1.
    An induced character is a class function, so that needs no check.
    The result holds theta~, its extension count and dim: each law is
    proved once a premise has not raised, so no field records it.
    """
    h1, j1 = bundle.h1, bundle.j1
    if pol.trivial:
        return InducedResult(theta, 1, 1)
    ext = extend_character(pol.b1, h1.codes, theta.nums, theta.denom)
    dim = j1.size // pol.b1.size
    if dim * dim * h1.size != j1.size:
        raise ConstructionFailure(
            f"B1/H1 is not Lagrangian: [J1:B1]^2 = {dim * dim} but "
            f"[J1:H1] = {j1.size // h1.size}")
    return InducedResult(GroupCharacter(pol.b1, ext.nums, ext.denom),
                         ext.count, dim)


# ---------------------------------------------------------------------------
# intertwining
# ---------------------------------------------------------------------------

def _fixed_on_generators(G, Gi, theta: GroupCharacter) -> np.ndarray:
    """Rows of a stack of units G with inverses Gi mod p^L that provably
    intertwine theta on all of H^1, decided on H^1's generators S.

    theta is a character, certified when it was built (GroupCharacter).
    When g S g^-1 lies in H^1, conjugation by g maps H^1 = <S> into, hence
    onto, itself; theta o Ad(g) and theta are then two characters of H^1,
    equal once they agree on S.  A row whose Gi is not the inverse of G is
    never certified.
    """
    h1 = theta.domain
    root, perms = h1._generator_tree()
    gens = np.array([perm[root] for perm in perms], dtype=np.intp)
    fixed = np.empty(len(G), dtype=bool)
    # a block's product G Gi and conjugate indices and exponents
    for blk in row_blocks(len(G), 8 * (2 * h1.n * h1.n + 3 * len(gens))):
        inverse = np.all(G[blk] @ Gi[blk] % h1.modulus
                         == np.eye(h1.n, dtype=np.int64), axis=(1, 2))
        idx = product_index(h1, G[blk], h1.mats[gens], Gi[blk])
        agree = (idx >= 0) & (theta.nums[idx] == theta.nums[gens])
        fixed[blk] = inverse & agree.all(axis=1)
    return fixed


def _first_not_intertwined(G, Gi, xs, theta: GroupCharacter):
    """Per conjugator of a stack (B, n, n) of units G with inverses Gi mod
    p^L, the index in xs (H^1 elements mod p^L) of the first x with
    theta(x) != theta(g x g^-1) where g x g^-1 lies in H^1, or -1 where g
    intertwines.

    The rows that `_fixed_on_generators` certifies are -1 after |S|
    conjugates.  The others scan xs in order, in row blocks that each leave
    the scan at their first bad x, and in windows of 8 x that grow
    fourfold; the first bad x is most often among the first few.  A
    window's table, an index, an exponent and masks per (row, x) of 4 * 8
    bytes, stays in CHUNK_BYTES: at the least width by the row blocks, and
    above it by the width.
    """
    h1 = theta.domain
    first = np.full(len(G), -1, dtype=np.intp)
    todo = np.flatnonzero(~_fixed_on_generators(G, Gi, theta))
    for blk in row_blocks(len(todo), 4 * 8 * 8):
        rows, lo, width = todo[blk], 0, 8
        while len(rows) and lo < len(xs):
            hi = min(len(xs), lo + width)
            x_nums = theta.nums[h1.index_of_codes(pack(xs[lo:hi], h1.p,
                                                       h1.level))]
            c_idx = product_index(h1, G[rows], xs[lo:hi], Gi[rows])
            bad = (c_idx >= 0) & (theta.nums[c_idx] != x_nums)
            hit = bad.any(axis=1)
            first[rows[hit]] = lo + bad[hit].argmax(axis=1)
            rows = rows[~hit]
            lo = hi
            width = min(4 * width, max(8, residues.CHUNK_BYTES
                                       // (4 * 8 * max(1, len(rows)))))
    return first


@dataclass
class DichotomyReport:
    total: int
    intertwining: int
    jcapk_size: int
    agree: bool
    witness: np.ndarray | None


@dataclass
class SpotIntertwiningReport:
    members_checked: int
    nonmembers_checked: int
    agree: bool
    witness: np.ndarray | None


def intertwining_spot(d: InductionDatum, bundle: SubgroupBundle,
                      theta: GroupCharacter, members: int = 40,
                      nonmembers: int = 40, seed: int = 0) -> SpotIntertwiningReport:
    """Budget-friendly instance of the dichotomy on sampled conjugators:
    sampled elements of J cap K (a class, then a box element) must
    intertwine theta and sampled units outside it must not.  All of them
    are decided in one stacked call; the counts and the witness are those
    of deciding them in turn, members first, up to the first failure."""
    p, n = d.p, d.order.n
    L = bundle.level
    h1, jk = bundle.h1, bundle.jcapk
    rng = Draws(seed)
    gs = jk.draw(rng, members)
    outside = sample_units_outside(jk.member_mask, p, L, n, rng,
                                   100 * nonmembers)
    conj = np.concatenate([gs] + [g[None] for g in
                                  itertools.islice(outside, nonmembers)])
    inter = _first_not_intertwined(conj, det_inv_mod(conj, p, L)[1],
                                   h1.mats, theta) < 0
    bad = inter != (np.arange(len(conj)) < members)
    if bad.any():
        i = int(np.argmax(bad))
        return SpotIntertwiningReport(min(i, members), max(0, i - members),
                                      False, conj[i])
    return SpotIntertwiningReport(members, len(conj) - members, True, None)


def intertwining_dichotomy(d: InductionDatum, bundle: SubgroupBundle,
                           theta: GroupCharacter,
                           budget: int = 5_000_000) -> DichotomyReport:
    """Exhaustively compare {g in K : g intertwines theta} with J cap K
    inside GL_n(Z/p^L), conjugating one unit per coset g H^1.

    theta is a character of H^1, certified when it was built
    (GroupCharacter), so the verdict is constant on g H^1: for h in H^1,
    (g h) x (g h)^-1 = g (h x h^-1) g^-1, and as x runs over H^1 so does
    h x h^-1, with theta(h x h^-1) = theta(x).  With k = floor(j/2) + 1 and
    s the least level with 1 + p^s M_n(O) inside U_A(k), which lies in H^1
    and in J cap K, both verdicts depend only on g mod p^s: the cosets
    g H^1 are the preimages of the cosets of H^1's image in GL_n(Z/p^s).
    So the sweep lists GL_n(Z/p^s) (unit_codes), held to the budget,
    decides the first unit of each coset in code order at level L, and
    weighs each count by the p^(n^2 (L - s)) lifts of a unit.
    The counts and the witness, the first unit in code order where
    intertwining and membership in J cap K disagree (its entries are below
    p^s, so it is first mod p^L too), are those of the sweep over every
    unit mod p^L.

    GL_n(Z/p^s) is held as its sorted codes and each unit's coset id, and
    no stack of it is unpacked: the coset decomposition unpacks only the
    candidates it multiplies, the representatives alone are decided, and
    the per-unit comparison of the coset's verdict with membership in
    J cap K walks the units in row blocks that fit CHUNK_BYTES.
    """
    p, n, L = d.p, d.order.n, bundle.level
    h1, jk = bundle.h1, bundle.jcapk
    s = max(d.order.entry_threshold(d.j // 2 + 1, r, c)
            for r in range(n) for c in range(n))
    gate = gl_order(n, p, s)
    if gate > budget:
        raise BudgetExceeded(f"{gate} units of GL_{n}(Z/p^{s}) to sweep",
                             estimate=gate)
    codes = unit_codes(p, s, n)
    units = FiniteSubgroup(f"GL_n(Z/p^{s})", p, s, n, codes)
    reps, coset = _coset_decomposition(units, unpack(
        distinct_codes(h1.mats, p, s, p ** s), p, s, n))
    G = unpack(codes[reps], p, s, n)
    decided = _first_not_intertwined(G, det_inv_mod(G, p, L)[1], h1.mats,
                                     theta) < 0
    count, witness = 0, None
    # a block's units, their codes at level L and their verdicts
    for blk in row_blocks(units.size, 8 * (2 * n * n + 4)):
        inter = decided[coset[blk]]
        count += int(np.count_nonzero(inter))
        block = unpack(codes[blk], p, s, n)
        disagree = inter != jk.member_mask(block)
        if witness is None and disagree.any():
            witness = block[np.argmax(disagree)]
    lifted = p ** (n * n * (L - s))
    return DichotomyReport(units.size * lifted, count * lifted, jk.size,
                           witness is None, witness)


# ---------------------------------------------------------------------------
# the parabolic group K_pi and its character
# ---------------------------------------------------------------------------

@dataclass
class PreparedBlock:
    """One supercuspidal factor with its groups, character, and extension."""

    datum: InductionDatum
    bundle: SubgroupBundle
    simple: SimpleCharacterResult
    pol: PolarizationData
    induced: InducedResult

    @property
    def b1(self) -> FiniteSubgroup:
        return self.pol.b1

    @property
    def theta_tilde(self) -> GroupCharacter:
        return self.induced.theta_tilde


def prepare_block(d: InductionDatum, budget: int = 2_000_000) -> PreparedBlock:
    bundle = build_subgroups(d, budget=budget)
    simple = simple_character(d, bundle)
    pol = heisenberg(d, bundle, simple.theta, budget)
    induced = extend_and_induce(bundle, simple.theta, pol)
    return PreparedBlock(d, bundle, simple, pol, induced)


class BlockCharacter:
    """Theta on K_pi: the product of the block characters at the diagonal,
    as exponent numerators over one common denominator."""

    def __init__(self, blocks, offsets, level, p):
        self.blocks = blocks
        self.offsets = offsets
        self.level = level
        self.p = p
        self.denom = math.lcm(*(b.theta_tilde.denom for b in blocks))

    def nums_of_residues(self, mats) -> np.ndarray:
        """Exponent numerators over denom for an (M, n, n) stack in K_pi."""
        mats = np.asarray(mats, dtype=np.int64)
        total = np.zeros(len(mats), dtype=np.int64)
        for blk, off in zip(self.blocks, self.offsets):
            sl = slice(off, off + blk.datum.order.n)
            theta = blk.theta_tilde
            total += (theta.nums_of_residues(mats[:, sl, sl])
                      * (self.denom // theta.denom))
        return total % self.denom


@dataclass
class KpiResult:
    kpi: FiniteSubgroup
    theta: object                 # GroupCharacter or BlockCharacter
    blocks: list
    c: object                     # Fraction (single) or int (parabolic)
    cfrak: int
    threshold: int                # K_pi lies in U_L(1) mod p^threshold
    level: int
    sampler: object | None

    @property
    def n(self) -> int:
        return sum(b.datum.order.n for b in self.blocks)


def depth_bound_cfrak(data) -> int:
    """min over blocks of floor((1/e) floor((d+1)/2))."""
    return min(((d.j + 1) // 2) // d.order.e for d in data)


def block_threshold(b) -> int:
    """The largest t <= level with B^ceil(j/2) inside p^t M_n(O): every
    element of the block's B^1, a subset of J^1 = U_L(1) + B^ceil(j/2), is
    then l + p^t y mod p^level with l in U_L(1)."""
    o, k = b.datum.order, (b.datum.j + 1) // 2
    return min(b.bundle.level, *(o.entry_threshold(k, r, c)
                                 for r in range(o.n) for c in range(o.n)))


def build_Kpi(blocks, inequivalent_assertion: bool = False,
              seed: int = 0) -> KpiResult:
    """Assemble K_pi and Theta from prepared supercuspidal blocks.

    A single block returns the uniform convention K_pi = B^1, Theta = the
    extended character.  Multiple blocks take c = ceil(max normalised
    depth), and each block's depth must lie within 1 of it; blocks of the
    same (e, j) need inequivalent_assertion.  They assemble the
    block-congruence group with p^floor((c+1)/2) above and p^ceil((c+1)/2)
    below the diagonal, and on 200 seeded pairs verify that it is closed
    under products and inverses, that Theta is multiplicative and that
    products respect the mod p^(c+1) block congruence; ConstructionFailure
    is raised otherwise.

    threshold is the t with K_pi inside U_L(1) mod p^t, read off the
    orders: the least block_threshold, and for several blocks also the
    off-diagonal p-powers.  testfunc.concentration_check holds it to cfrak.
    """
    if not blocks:
        raise DatumInvalid("at least one block is required")
    p = blocks[0].datum.p
    if len(blocks) == 1:
        blk = blocks[0]
        d = blk.datum
        return KpiResult(
            kpi=blk.b1, theta=blk.theta_tilde, blocks=list(blocks),
            c=d.normalised_depth, cfrak=depth_bound_cfrak([d]),
            threshold=block_threshold(blk), level=blk.bundle.level,
            sampler=None)

    if any(b.datum.p != p for b in blocks):
        raise DatumInvalid("blocks live over different primes")
    if any(b.datum.order.n < 2 for b in blocks):
        raise DatumInvalid("every block must have dimension at least 2")
    cs = [b.datum.normalised_depth for b in blocks]
    c_val = math.ceil(max(cs))
    for ci in cs:
        if abs(ci - c_val) > 1:
            raise DatumInvalid(
                f"normalised depth {ci} violates the O(1) band around {c_val}")
    shapes = {(b.datum.order.e, b.datum.j) for b in blocks}
    if len(shapes) < len(blocks) and not inequivalent_assertion:
        raise DatumInvalid(
            "blocks share (e, j); pairwise inequivalence must be asserted")

    *offsets, n = itertools.accumulate([0] + [b.datum.order.n
                                              for b in blocks])
    slices = [slice(o, o + b.datum.order.n) for o, b in zip(offsets, blocks)]
    upper = (c_val + 1) // 2          # floor
    lower = (c_val + 2) // 2          # ceil
    # (row block, column block, p-power) of every off-diagonal block
    off_blocks = [(i, k2, upper if i < k2 else lower)
                  for i in range(len(blocks)) for k2 in range(len(blocks))
                  if i != k2]
    level = max(c_val + 2, max(b.bundle.level for b in blocks))
    mod = p ** level

    size = 1
    for b in blocks:
        ni = b.datum.order.n
        size *= b.b1.size * p ** (ni * ni * (level - b.bundle.level))
    for i, k2, thr in off_blocks:
        size *= p ** ((level - thr) * blocks[i].datum.order.n
                      * blocks[k2].datum.order.n)

    def membership(mats) -> np.ndarray:
        ok = np.ones(len(mats), dtype=bool)
        for sl, b in zip(slices, blocks):
            ok &= b.b1.member_mask(mats[:, sl, sl])
        for i, k2, thr in off_blocks:
            ok &= np.all(mats[:, slices[i], slices[k2]] % p ** thr == 0,
                         axis=(1, 2))
        return ok

    kpi = FiniteSubgroup("K_pi", p, level, n, membership=membership, size=size)
    theta = BlockCharacter(blocks, offsets, level, p)

    def sampler(rng, count) -> np.ndarray:
        """count seeded elements of K_pi as a (count, n, n) stack."""
        mats = np.zeros((count, n, n), dtype=np.int64)
        for sl, b in zip(slices, blocks):
            ni, lev = b.datum.order.n, b.bundle.level
            base = b.b1.mats[rng.integers(0, b.b1.size, size=count)]
            mats[:, sl, sl] = (base + p ** lev * rng.integers(
                0, p ** (level - lev), size=(count, ni, ni))) % mod
        for i, k2, thr in off_blocks:
            shape = (count, blocks[i].datum.order.n, blocks[k2].datum.order.n)
            mats[:, slices[i], slices[k2]] = p ** thr * rng.integers(
                0, p ** (level - thr), size=shape) % mod
        return mats

    # --- seeded verifications, all pairs at once ---
    cmod = p ** (c_val + 1)
    rng = Draws(seed)
    xs, ys = sampler(rng, 200), sampler(rng, 200)
    xy = xs @ ys % mod
    _, xinv, unit = det_inv_mod(xs, p, level)
    in_kpi = membership(xy)
    closure_ok = bool(np.all(in_kpi & unit & membership(xinv)))
    # displayed block congruence mod p^(c+1)
    congruence_ok = all(np.array_equal(xy[:, sl, sl] % cmod,
                                       xs[:, sl, sl] @ ys[:, sl, sl] % cmod)
                        for sl in slices)
    t = theta.nums_of_residues
    theta_ok = not np.any((t(xs[in_kpi]) + t(ys[in_kpi]) - t(xy[in_kpi]))
                          % theta.denom)
    if not (closure_ok and theta_ok and congruence_ok):
        raise ConstructionFailure(
            f"K_pi verification failed: closure={closure_ok} "
            f"theta={theta_ok} congruence={congruence_ok}")
    threshold = min(upper, lower, *map(block_threshold, blocks))
    return KpiResult(kpi, theta, list(blocks), c_val,
                     depth_bound_cfrak([b.datum for b in blocks]), threshold,
                     level, sampler)
