"""Exact character tables of finite groups.

Characters are found as common eigenvectors of the class-sum matrices
over a prime field F_p with p = 1 mod exp(G) and p > |G| (linalg's
_field, which checks its primitive exp(G)-th root of unity), then lifted
to exact cyclotomic values by computing root-of-unity multiplicities.
The lifted table is verified against orthogonality before it is
returned, so the modular arithmetic never leaks into results.

Row order is canonical: the trivial character first, the rest sorted
by (degree, value sequence); columns follow the group's class order.
"""

from __future__ import annotations

from math import isqrt

from .cyclo import CycloNumber, ONE, ZERO, as_cyclo, dot
from .errors import fail
from .groups import Group
from .linalg import _field, kernel_modp, rref_modp


class CharacterTable:
    def __init__(self, group: Group, rows: list[list[CycloNumber]]):
        self.group = group
        self.classes = group.conjugacy_classes()
        self.r = len(self.classes)
        self.class_of = group.class_of()
        self.inv_class = [self.class_of[group.inv[c.representative]]
                          for c in self.classes]
        self.N = group.exponent()
        self.rows = rows
        if any(not row[0].is_rational() for row in rows):
            fail(group, "rational degrees")
        degs = [row[0].rational_value() for row in rows]
        if any(d.denominator != 1 or d <= 0 for d in degs):
            fail(group, "positive integer degrees")
        self.degrees = [int(d) for d in degs]
        self._verify()
        self.dual_row = self._compute_duals()

    def _verify(self) -> None:
        G, r = self.group, self.r
        if len(self.rows) != r:
            fail(G, "one row per class", None,
                 f"{len(self.rows)} rows for {r} classes")
        if sum(d * d for d in self.degrees) != G.n:
            fail(G, "sum of squared degrees = group order")
        if any(v != 1 for v in self.rows[0]):
            fail(G, "trivial first row")
        sizes = [c.size for c in self.classes]
        for i in range(r):
            for k in range(r):
                if self.rows[i][k].conjugate() != self.rows[i][self.inv_class[k]]:
                    fail(G, "conjugate/inverse agreement", None,
                         f"row {i}, class {k}")
            for j in range(i, r):
                tot = dot([(as_cyclo(sizes[k]) * self.rows[i][k],
                            self.rows[j][self.inv_class[k]])
                           for k in range(r)])
                want = G.n if i == j else 0
                if tot != want:
                    fail(G, "orthogonality", None, f"rows {i},{j}")

    def _compute_duals(self) -> list[int]:
        duals = []
        for i in range(self.r):
            target = [self.rows[i][self.inv_class[k]] for k in range(self.r)]
            hits = [j for j in range(self.r) if self.rows[j] == target]
            if len(hits) != 1:
                fail(self.group, "dual uniqueness", None, f"row {i}")
            duals.append(hits[0])
        return duals

    def value_at(self, i: int, g: int) -> CycloNumber:
        return self.rows[i][self.class_of[g]]


def _class_matrices(G: Group) -> list[list[list[int]]]:
    classes = G.conjugacy_classes()
    r = len(classes)
    class_of = G.class_of()
    mats = [[[0] * r for _ in range(r)] for _ in range(r)]
    for i, ci in enumerate(classes):
        for x in ci.members:
            rowx = G.table[x]
            for j, cj in enumerate(classes):
                mi = mats[i]
                for y in cj.members:
                    mi[j][class_of[rowx[y]]] += 1
    # tallies count all (x, y) pairs landing in class k; the class
    # algebra constant is the count for one fixed product, so divide
    for i in range(r):
        for j in range(r):
            for k in range(r):
                q, rem = divmod(mats[i][j][k], classes[k].size)
                if rem:
                    fail(G, "class product tally divisibility", None,
                         f"classes {i},{j} -> {k}")
                mats[i][j][k] = q
    return mats


def _central_characters(G: Group, p: int) -> list[list[int]]:
    """All r common eigenvectors of the class matrices mod p, with
    coordinate 0 normalized to 1."""
    r = len(G.conjugacy_classes())
    mats = _class_matrices(G)
    spaces: list[list[list[int]]] = [[[1 if i == j else 0 for j in range(r)]
                                      for i in range(r)]]
    for i in range(1, r):
        if all(len(v) == 1 for v in spaces):
            break
        mat = mats[i]
        nxt: list[list[list[int]]] = []
        for basis in spaces:
            d = len(basis)
            if d == 1:
                nxt.append(basis)
                continue
            rr, pivots = rref_modp(basis, p)
            images = []
            for v in rr:
                img = [sum(mat[j][k] * v[k] for k in range(r)) % p for j in range(r)]
                coords = [img[pc] for pc in pivots]
                back = [sum(c * b[j] for c, b in zip(coords, rr)) % p for j in range(r)]
                if back != img:
                    fail(G, "invariance mod p", None, f"class matrix {i}")
                images.append(coords)
            remaining = d
            for lam in range(p):
                if remaining == 0:
                    break
                # eigenvectors in coordinates: images^T c = lam c
                shifted = [[(images[t][s] - (lam if s == t else 0)) % p
                            for t in range(d)] for s in range(d)]
                ker = kernel_modp(shifted, p)
                if not ker:
                    continue
                sub = [[sum(c * b[j] for c, b in zip(kv, rr)) % p for j in range(r)]
                       for kv in ker]
                nxt.append(sub)
                remaining -= len(ker)
            if remaining:
                fail(G, "diagonalizability mod p", None, f"class matrix {i}")
        spaces = nxt
    if len(spaces) != r or any(len(v) != 1 for v in spaces):
        fail(G, "separation of the characters mod p")
    out = []
    for basis in spaces:
        v = basis[0]
        if v[0] % p == 0:
            fail(G, "central character normalization")
        inv = pow(v[0], p - 2, p)
        out.append([x * inv % p for x in v])
    return out


def character_table(G: Group) -> CharacterTable:
    if G.n == 1:
        return CharacterTable(G, [[ONE]])
    classes = G.conjugacy_classes()
    r = len(classes)
    sizes = [c.size for c in classes]
    N = G.exponent()
    # w^e = roots[e] for the field's checked primitive N-th root w
    field = _field(N, G.n)
    p, roots = field.p, field.powers
    omegas = _central_characters(G, p)
    class_of = G.class_of()
    inv_class = [class_of[G.inv[c.representative]] for c in classes]

    rows: list[list[CycloNumber]] = []
    for om in omegas:
        s = sum(om[k] * om[inv_class[k]] * pow(sizes[k], p - 2, p)
                for k in range(r)) % p
        if s == 0:
            fail(G, "degree formula nondegeneracy mod p")
        d2 = G.n * pow(s, p - 2, p) % p
        d = _exact_isqrt(d2)
        if d is None or not 1 <= d * d <= G.n:
            fail(G, "integer degree")
        chi_p = [d * om[k] * pow(sizes[k], p - 2, p) % p for k in range(r)]
        row = []
        for k, c in enumerate(classes):
            g = c.representative
            dg = G.element_order(g)
            step = N // dg
            powers = []
            x = 0
            for _ in range(dg):
                powers.append(chi_p[class_of[x]])
                x = G.mul(x, g)
            dginv = pow(dg, p - 2, p)
            val = ZERO
            total = 0
            for e in range(dg):
                # z^(-e t) for z = w^(N/dg), a primitive dg-th root
                m = sum(powers[t] * roots[-step * e * t % N]
                        for t in range(dg)) * dginv % p
                if m > d:
                    fail(G, "root multiplicity <= degree", None, f"class {k}")
                if m:
                    val = val + as_cyclo(m) * CycloNumber.zeta(dg, e)
                    total += m
            if total != d:
                fail(G, "root multiplicity sum = degree", None, f"class {k}")
            row.append(val)
        rows.append(row)

    trivial = [ONE] * r
    if trivial not in rows:
        fail(G, "trivial character presence")
    rows.remove(trivial)
    rows.sort(key=lambda row: (row[0].rational_value(),
                               [v.sort_key(N) for v in row]))
    rows.insert(0, trivial)
    return CharacterTable(G, rows)


def _exact_isqrt(n: int) -> int | None:
    d = isqrt(n)
    return d if d * d == n else None
