"""Exact character tables of finite groups.

Characters are found as common eigenvectors of the class-sum matrices
over a prime field F_p with p = 1 mod exp(G) and p > |G|, then lifted
to exact cyclotomic values by computing root-of-unity multiplicities.
The lifted table is verified against orthogonality before it is
returned, so the modular arithmetic never leaks into results.

Row order is canonical: the trivial character first, the rest sorted
by (degree, value sequence); columns follow the group's class order.
"""

from __future__ import annotations

from math import isqrt

from .cyclo import CycloNumber, ONE, ZERO, as_cyclo
from .errors import InconsistentCharacters
from .groups import Group
from .linalg import (find_prime, kernel_modp, primitive_root_of_unity,
                     rref_modp)


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
            raise InconsistentCharacters(
                f"{group.name}: degrees must be rational")
        degs = [row[0].rational_value() for row in rows]
        if any(d.denominator != 1 or d <= 0 for d in degs):
            raise InconsistentCharacters(
                f"{group.name}: degrees must be positive integers")
        self.degrees = [int(d) for d in degs]
        self._verify()
        self.dual_row = self._compute_duals()

    def _verify(self) -> None:
        G, r = self.group, self.r
        if len(self.rows) != r:
            raise InconsistentCharacters(
                f"{G.name}: {len(self.rows)} rows for {r} classes")
        if sum(d * d for d in self.degrees) != G.n:
            raise InconsistentCharacters(
                f"{G.name}: degree squares do not sum to group order")
        if any(v != 1 for v in self.rows[0]):
            raise InconsistentCharacters(
                f"{G.name}: first row is not the trivial character")
        sizes = [c.size for c in self.classes]
        for i in range(r):
            for k in range(r):
                if self.rows[i][k].conjugate() != self.rows[i][self.inv_class[k]]:
                    raise InconsistentCharacters(
                        f"{G.name}: conjugate/inverse mismatch at row {i}, "
                        f"class {k}")
            for j in range(i, r):
                tot = ZERO
                for k in range(r):
                    tot = tot + as_cyclo(sizes[k]) * self.rows[i][k] \
                        * self.rows[j][self.inv_class[k]]
                want = G.n if i == j else 0
                if tot != want:
                    raise InconsistentCharacters(
                        f"{G.name}: orthogonality fails at rows {i},{j}")

    def _compute_duals(self) -> list[int]:
        duals = []
        for i in range(self.r):
            target = [self.rows[i][self.inv_class[k]] for k in range(self.r)]
            hits = [j for j in range(self.r) if self.rows[j] == target]
            if len(hits) != 1:
                raise InconsistentCharacters(
                    f"{self.group.name}: dual character not unique")
            duals.append(hits[0])
        return duals

    def value(self, i: int, k: int) -> CycloNumber:
        return self.rows[i][k]

    def value_at(self, i: int, g: int) -> CycloNumber:
        return self.rows[i][self.class_of[g]]

    def to_json(self) -> dict:
        return {"group": self.group.to_json(),
                "rows": [[v.to_json() for v in row] for row in self.rows]}

    @staticmethod
    def from_json(obj: dict) -> "CharacterTable":
        G = Group.from_json(obj["group"])
        rows = [[CycloNumber.from_json(v) for v in row] for row in obj["rows"]]
        return CharacterTable(G, rows)


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
                    raise InconsistentCharacters("class product tally not divisible")
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
                    raise InconsistentCharacters("subspace not invariant mod p")
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
                raise InconsistentCharacters("class matrix not diagonalizable mod p")
        spaces = nxt
    if len(spaces) != r or any(len(v) != 1 for v in spaces):
        raise InconsistentCharacters("could not separate all characters mod p")
    out = []
    for basis in spaces:
        v = basis[0]
        if v[0] % p == 0:
            raise InconsistentCharacters("central character vanishes at identity")
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
    p = find_prime(N, G.n)
    w = primitive_root_of_unity(p, N)
    omegas = _central_characters(G, p)
    class_of = G.class_of()
    inv_class = [class_of[G.inv[c.representative]] for c in classes]

    rows: list[list[CycloNumber]] = []
    for om in omegas:
        s = sum(om[k] * om[inv_class[k]] * pow(sizes[k], p - 2, p)
                for k in range(r)) % p
        if s == 0:
            raise InconsistentCharacters("degree formula degenerate mod p")
        d2 = G.n * pow(s, p - 2, p) % p
        d = _exact_isqrt(d2)
        if d is None or not 1 <= d * d <= G.n:
            raise InconsistentCharacters("degree is not a small integer square root")
        chi_p = [d * om[k] * pow(sizes[k], p - 2, p) % p for k in range(r)]
        row = []
        for k, c in enumerate(classes):
            g = c.representative
            dg = G.element_order(g)
            z = pow(w, N // dg, p)
            zinv = pow(z, p - 2, p)
            powers = []
            x = 0
            for _ in range(dg):
                powers.append(chi_p[class_of[x]])
                x = G.mul(x, g)
            dginv = pow(dg, p - 2, p)
            val = ZERO
            total = 0
            for e in range(dg):
                m = sum(powers[t] * pow(zinv, e * t, p) for t in range(dg)) * dginv % p
                if m > d:
                    raise InconsistentCharacters("root multiplicity exceeds degree")
                if m:
                    val = val + as_cyclo(m) * CycloNumber.zeta(dg, e)
                    total += m
            if total != d:
                raise InconsistentCharacters("root multiplicities do not sum to degree")
            row.append(val)
        rows.append(row)

    trivial = [ONE] * r
    if trivial not in rows:
        raise InconsistentCharacters("trivial character missing")
    rows.remove(trivial)
    rows.sort(key=lambda row: (row[0].rational_value(),
                               [v.sort_key(N) for v in row]))
    rows.insert(0, trivial)
    return CharacterTable(G, rows)


def _exact_isqrt(n: int) -> int | None:
    d = isqrt(n)
    return d if d * d == n else None
