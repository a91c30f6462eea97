"""Seeded random generators for programs and values.

The program generator is type-directed: it tracks the current mode's party
set and a typed environment, and only emits operations whose side conditions
are guaranteed to hold, so every generated program runs to completion on the
reference machine.  Types are tuples:

    ("int",) ("bool",) ("sealed", ps, t)

The value generator produces "recoverable" values: data nested under a seal,
map entry, or share handle belongs to parties that keep it in view, which is
the shape machine-reachable values have and what the slice/combine
round-trip needs.
"""

from __future__ import annotations

import random

from wysx.lang import (
    Bool, Env, FfiInt, FfiList, FfiPair, FfiStr, OPAQUE, PrinSet, PrinVal,
    PrinsVal, Sealed, ShareVal, UNIT, Value, VMap,
)
from wysx.lang import (
    App, AsPar, AsSec, Const, Expr, Ffi, If, Lam, Let, MkMap, Project, Reveal,
    Seal, Var,
)
from wysx.shares import ShareMint

AB = PrinSet.of("a", "b")
A = PrinSet.of("a")
B = PrinSet.of("b")

INT = ("int",)
BOOL = ("bool",)


def sealed(ps, t=INT):
    return ("sealed", ps, t)


def prins(ps: PrinSet) -> Expr:
    return Const(PrinsVal(ps))


BASE_TYPES = {
    "xa": sealed(A),
    "xb": sealed(B),
    "pub": INT,
    "flag": BOOL,
}


def base_env() -> Env:
    return Env({
        "xa": Sealed(A, FfiInt(11)),
        "xb": Sealed(B, FfiInt(23)),
        "pub": FfiInt(5),
        "flag": Bool(True),
    })


class ProgGen:
    def __init__(self, seed: int, max_depth: int = 5):
        self.rng = random.Random(f"prog|{seed}")
        self.max_depth = max_depth
        self.fresh = 0

    def var(self) -> str:
        self.fresh += 1
        return f"v{self.fresh}"

    def gen(self) -> Expr:
        t = self.rng.choice((INT, INT, BOOL, sealed(A), sealed(B), sealed(AB)))
        return self.of_type(t, AB, dict(BASE_TYPES), self.max_depth, False)

    # every method returns an expression of the requested type, valid in
    # par mode over ps (or, when is_sec, inside a joint block over ps)

    def of_type(self, t, ps, tenv, d, is_sec) -> Expr:
        if t == INT:
            return self.gen_int(ps, tenv, d, is_sec)
        if t == BOOL:
            return self.gen_bool(ps, tenv, d, is_sec)
        if t[0] == "sealed":
            return self.gen_sealed(t[1], t[2], ps, tenv, d)
        raise AssertionError(t)

    def vars_of(self, t, tenv):
        return sorted(x for x, xt in tenv.items() if xt == t)

    def readable_seals(self, ps, tenv, is_sec, t):
        if is_sec:
            return sorted(x for x, xt in tenv.items()
                          if xt[0] == "sealed" and xt[2] == t
                          and xt[1].intersects(ps))
        return sorted(x for x, xt in tenv.items()
                      if xt[0] == "sealed" and xt[2] == t
                      and ps.subset_of(xt[1]))

    def gen_int(self, ps, tenv, d, is_sec) -> Expr:
        opts = ["lit", "lit"]
        vs = self.vars_of(INT, tenv)
        if vs:
            opts += ["var", "var"]
        if d > 0:
            opts += ["arith", "if", "let"]
            if self.readable_seals(ps, tenv, is_sec, INT):
                opts += ["reveal", "reveal"]
            if not is_sec:
                opts += ["seal_reveal"]
                if not ps.is_singleton():
                    opts += ["sec", "sec"]
                opts += ["par_project"]
        pick = self.rng.choice(opts)
        if pick == "lit":
            return Const(FfiInt(self.rng.randrange(-20, 50)))
        if pick == "var":
            return Var(self.rng.choice(vs))
        if pick == "arith":
            op = self.rng.choice(("add", "sub", "mul"))
            return Ffi(op, (self.gen_int(ps, tenv, d - 1, is_sec),
                            self.gen_int(ps, tenv, d - 1, is_sec)))
        if pick == "if":
            return If(self.gen_bool(ps, tenv, d - 1, is_sec),
                      self.gen_int(ps, tenv, d - 1, is_sec),
                      self.gen_int(ps, tenv, d - 1, is_sec))
        if pick == "let":
            x = self.var()
            bt = self.rng.choice((INT, BOOL))
            bound = self.of_type(bt, ps, tenv, d - 1, is_sec)
            t2 = dict(tenv)
            t2[x] = bt
            return Let(x, bound, self.gen_int(ps, t2, d - 1, is_sec))
        if pick == "reveal":
            return Reveal(Var(self.rng.choice(
                self.readable_seals(ps, tenv, is_sec, INT))))
        if pick == "seal_reveal":
            return Reveal(Seal(prins(ps), self.gen_int(ps, tenv, d - 1, False)))
        if pick == "sec":
            body = self.gen_int(ps, tenv, d - 1, True)
            return AsSec(prins(ps), Lam("_", body))
        if pick == "par_project":
            # a singleton block maps its own seal and projects the entry out
            p = self.rng.choice(ps.names)
            pset = PrinSet.of(p)
            inner = MkMap(prins(pset),
                          Seal(prins(pset), self.gen_int(pset, tenv, d - 1, False)))
            thunk = AsPar(prins(pset), Lam("_", Project(Const(PrinVal(p)), inner)))
            out = self.var()
            t2 = dict(tenv)
            t2[out] = sealed(pset)
            return Let(out, thunk, self.gen_int(ps, t2, max(d - 2, 0), is_sec))
        raise AssertionError(pick)

    def gen_bool(self, ps, tenv, d, is_sec) -> Expr:
        opts = ["lit"]
        vs = self.vars_of(BOOL, tenv)
        if vs:
            opts += ["var", "var"]
        if d > 0:
            opts += ["cmp", "cmp", "not", "logic", "if"]
            if not is_sec and not ps.is_singleton():
                opts += ["sec"]
        pick = self.rng.choice(opts)
        if pick == "lit":
            return Const(Bool(self.rng.random() < 0.5))
        if pick == "var":
            return Var(self.rng.choice(vs))
        if pick == "cmp":
            op = self.rng.choice(("gt", "lt", "ge", "eq"))
            return Ffi(op, (self.gen_int(ps, tenv, d - 1, is_sec),
                            self.gen_int(ps, tenv, d - 1, is_sec)))
        if pick == "not":
            return Ffi("not", (self.gen_bool(ps, tenv, d - 1, is_sec),))
        if pick == "logic":
            op = self.rng.choice(("and", "or"))
            return Ffi(op, (self.gen_bool(ps, tenv, d - 1, is_sec),
                            self.gen_bool(ps, tenv, d - 1, is_sec)))
        if pick == "if":
            return If(self.gen_bool(ps, tenv, d - 1, is_sec),
                      self.gen_bool(ps, tenv, d - 1, is_sec),
                      self.gen_bool(ps, tenv, d - 1, is_sec))
        if pick == "sec":
            return AsSec(prins(ps), Lam("_", self.gen_bool(ps, tenv, d - 1, True)))
        raise AssertionError(pick)

    def gen_sealed(self, s, t, ps, tenv, d) -> Expr:
        # only valid in par mode with s inside the current set
        assert s.subset_of(ps)
        vs = self.vars_of(sealed(s, t), tenv)
        opts = ["seal"]
        if vs:
            opts += ["var", "var"]
        if d > 0:
            opts += ["par", "par"]
        pick = self.rng.choice(opts)
        if pick == "var":
            return Var(self.rng.choice(vs))
        if pick == "seal":
            return Seal(prins(s), self.of_type(t, ps, tenv, max(d - 1, 0), False))
        body = self.of_type(t, s, tenv, d - 1, False)
        return AsPar(prins(s), Lam("_", body))


def gen_program(seed: int, max_depth: int = 5) -> Expr:
    return ProgGen(seed, max_depth).gen()


def gen_program_twice(seed: int) -> Expr:
    """``gen_program(seed)`` as the body of a function of ``pub``, applied to
    5 and then to -3 in one program: every joint block that reads ``pub`` is
    entered again with another public value."""
    f = Var("f")
    return Let("f", Lam("pub", gen_program(seed)),
               Ffi("pair", (App(f, Const(FfiInt(5))),
                            App(f, Const(FfiInt(-3))))))


# ---------------------------------------------------------------------------
# recoverable value generator

UNIVERSE = PrinSet.of("a", "b", "c")


def _inter(s1: PrinSet, s2: PrinSet) -> PrinSet:
    common = [p for p in s1.names if p in s2.names]
    return PrinSet.of(*common) if common else PrinSet(())


class ValGen:
    def __init__(self, seed: int):
        self.rng = random.Random(f"val|{seed}")
        self.mint = ShareMint(seed)

    def subset(self, of_: PrinSet, min_size: int = 1) -> PrinSet:
        names = list(of_.names)
        self.rng.shuffle(names)
        k = self.rng.randint(min_size, len(names))
        return PrinSet.of(*names[:k])

    def leaf(self) -> Value:
        pick = self.rng.randrange(6)
        if pick == 0:
            return Bool(self.rng.random() < 0.5)
        if pick == 1:
            return FfiStr(self.rng.choice(("x", "hello", "")))
        if pick == 2:
            return UNIT
        return FfiInt(self.rng.randrange(-99, 100))

    def gen(self, depth: int, owners: PrinSet = UNIVERSE) -> Value:
        """A value whose slices at ``owners`` jointly preserve everything."""
        if depth == 0:
            return self.leaf()
        pick = self.rng.randrange(10)
        if pick <= 2:
            return self.leaf()
        if pick == 3:
            return FfiPair(self.gen(depth - 1, owners),
                           self.gen(depth - 1, owners))
        if pick == 4:
            return FfiList(tuple(self.gen(depth - 1, owners)
                                 for _ in range(self.rng.randrange(4))))
        if pick in (5, 6):
            if self.rng.random() < 0.15:
                return Sealed(self.subset(UNIVERSE), OPAQUE)
            s = self.subset(owners).union(self.subset(UNIVERSE))
            return Sealed(s, self.gen(depth - 1, _inter(s, owners)))
        if pick == 7:
            ks = self.subset(owners)
            return VMap.of({p: self.gen(depth - 1, PrinSet.of(p))
                            for p in ks.names})
        if pick == 8:
            s = self.subset(owners)
            width = self.rng.choice((4, 8, 32))
            words = self.mint.mint_words(s, self.rng.randrange(-8, 8), width)
            return ShareVal.of(s, words, width)
        return self.leaf()


def gen_value(seed: int, depth: int = 3) -> Value:
    return ValGen(seed).gen(depth)
