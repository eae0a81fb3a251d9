"""Command-line frontend.

Subcommands: ``fgl show``, ``tower show|check``, ``frob check|gysin``,
``green value|res|ind|stable``, ``audit mackey|assumptions``.  Output is
human-readable text or JSON (--format json); --out writes to a file.

Exit codes: 0 success (audits: no fail rows), 1 usage error, 2 scope or
budget error, 3 audit failure.  GREENKERNEL_BUDGET overrides the default
size budget.  Timing fields in audit reports vary run to run; pass
--no-timing to zero them when byte-identical output matters.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

import numpy as np

from .exactkernel import BudgetError, ExactKernelError, FpMatrix, ScopeError, _is_prime
from .borel import AlgebraMap, BorelAlgebra, El, Subalgebra, format_terms
from .fgl import HondaParams, honda_fgl
from .frobform import FrobeniusForm, canonical_form, gysin, is_frobenius_form
from .green import (
    DEFAULT_SIZE_BUDGET,
    SubgroupGreenFunctor,
    stable_elements,
    value_general,
)
from .grp import PermGroup, named_group, parse_cycles, parse_group_file, sylow
from .hopftower import (
    format_tensor_element,
    honda_level,
    hopf_check,
    pdiv_check,
    tower_maps,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SCOPE = 2
EXIT_AUDIT = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _budget(args) -> int:
    if args.budget is not None:
        return args.budget
    env = os.environ.get("GREENKERNEL_BUDGET")
    if env:
        try:
            return int(env)
        except ValueError:
            raise UsageError("GREENKERNEL_BUDGET must be an integer")
    return DEFAULT_SIZE_BUDGET


def _validate_config(args) -> None:
    p = getattr(args, "p", None)
    if p is None:
        return
    if not _is_prime(p):
        raise UsageError("--p must be prime (got %d)" % p)
    n = getattr(args, "n", 1)
    if n < 1:
        raise UsageError("--n must be >= 1")
    for opt, least in (("r", 1), ("s", 1), ("deg", 2)):
        value = getattr(args, opt, None)
        if value is not None and value < least:
            raise UsageError("--%s must be >= %d" % (opt, least))
    if _budget(args) < p ** n:
        raise UsageError("budget %d is below the base dimension p^n = %d"
                         % (_budget(args), p ** n))


def _load_group(args) -> tuple[str, PermGroup]:
    if args.group_file:
        try:
            with open(args.group_file) as fh:
                text = fh.read()
        except OSError as ex:
            raise UsageError("cannot read group file: %s" % ex)
        try:
            return (os.path.basename(args.group_file), parse_group_file(text))
        except BudgetError:
            raise
        except ExactKernelError as ex:
            raise UsageError("malformed group file: %s" % ex)
    if args.group:
        try:
            return (args.group, named_group(args.group))
        except ExactKernelError as ex:
            raise UsageError(str(ex))
    raise UsageError("a group is required (--group or --group-file)")


def _resolve_subgroup(G: PermGroup, spec: str, p: int) -> PermGroup:
    s = spec.strip()
    if s in ("1", "trivial"):
        return G.trivial_subgroup()
    if s.lower() == "sylow":
        return sylow(G, p)
    if s.lower() == "self":
        return G
    gens = [parse_cycles(part, G.degree) for part in s.split(";") if part.strip()]
    return G.subgroup(gens)


def _parse_element(A: BorelAlgebra, text: str) -> El:
    """Parse '0', '1', 'x^2', '2*x1*x2^3 + 1' into an element of A; a
    malformed exponent or unknown variable is a usage error."""
    out = A.zero()
    for term in re.sub(r"(?<!\^)-", "+-", text).split("+"):
        term = term.strip()
        if not term:
            continue
        neg = term.startswith("-")
        if neg:
            term = term[1:].strip()
        coeff = 1
        el = A.one()
        for factor in term.split("*"):
            factor = factor.strip()
            if not factor:
                continue
            if factor.isdecimal():
                coeff = (coeff * int(factor)) % A.p
                continue
            if "^" in factor:
                name, _, e = factor.partition("^")
                if not e.strip().isdecimal():
                    raise UsageError("malformed exponent in %r: want name^k, k >= 0" % factor)
                k = int(e)
            else:
                name, k = factor, 1
            name = name.strip()
            if name == "0":
                coeff = 0
                continue
            if name == "1":
                continue
            if name not in A.var_names:
                raise UsageError("unknown variable %r (have %s)" % (name, ", ".join(A.var_names)))
            el = el * (A.gen(A.var_names.index(name)) ** k)
        contrib = el * (coeff if not neg else (-coeff) % A.p)
        out = out + contrib
    return out


def _emit(args, payload_text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(payload_text)
            if not payload_text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(payload_text)
        if not payload_text.endswith("\n"):
            sys.stdout.write("\n")


_SCALARS = frozenset((str, int, float, bool, type(None)))


class _NotPlainJson(Exception):
    """A value _json_text leaves to json.dumps: not a str-keyed dict, a
    list or tuple, or an exact scalar type."""


@functools.cache
def _scalar_encoder(newline: str):
    """The C encoder for scalars and containers of scalars whose members
    start on newline: json.dumps(indent=2, sort_keys=True) without the
    brackets' own line breaks."""
    return json.encoder.c_make_encoder(None, None, json.encoder.encode_basestring_ascii, None,
                                       ": ", "," + newline, True, False, True)


def _json_text(obj, newline: str) -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True) lays it out, its
    members starting on newline + two spaces: a container of scalars in
    one C-encoder call, nested containers walked here."""
    kind = type(obj)
    if kind in _SCALARS:
        return "".join(_scalar_encoder(newline)(obj, 0))
    if kind is dict:
        if not all(type(k) is str for k in obj):
            raise _NotPlainJson
        brackets, members = "{}", obj.values()
    elif kind is list or kind is tuple:
        brackets, members = "[]", obj
    else:
        raise _NotPlainJson
    if not obj:
        return brackets
    inner = newline + "  "
    if all(type(v) in _SCALARS for v in members):
        body = "".join(_scalar_encoder(inner)(obj, 0))[1:-1]
    elif kind is dict:
        body = ("," + inner).join(json.encoder.encode_basestring_ascii(k) + ": "
                                  + _json_text(v, inner) for k, v in sorted(obj.items()))
    else:
        body = ("," + inner).join(_json_text(v, inner) for v in obj)
    return brackets[0] + inner + body + newline + brackets[1]


def _json_dumps(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte."""
    if json.encoder.c_make_encoder is not None:
        try:
            return _json_text(obj, "\n")
        except _NotPlainJson:
            pass
    return json.dumps(obj, indent=2, sort_keys=True)


def _element_json(A, el: El) -> dict:
    if isinstance(A, Subalgebra):
        amb = A.element_to_ambient(el)
        return _element_json(A.ambient, amb)
    return {"poly": str(el), "coords": [int(c) for c in el.vec]}


# -- subcommand implementations ----------------------------------------------


def _cmd_fgl_show(args) -> int:
    p, n = args.p, args.n
    deg = max(p ** n, 4) if args.deg is None else args.deg
    F = honda_fgl(HondaParams(p, n, deg)).F
    terms = {(int(i), int(j)): int(F[i, j]) for i, j in zip(*np.nonzero(F))}
    if args.format == "json":
        payload = {
            "p": p, "n": n, "deg": deg,
            "terms": {"%d,%d" % e: c for e, c in terms.items()},
        }
        _emit(args, _json_dumps(payload))
    else:
        poly = format_terms(("x", "y"), sorted(terms.items(), key=lambda t: (sum(t[0]), t[0])))
        _emit(args, "F(x, y) mod (x^%d, y^%d), p=%d, n=%d:\n  %s" % (deg, deg, p, n, poly))
    return EXIT_OK


def _cmd_tower_show(args) -> int:
    level = honda_level(HondaParams(args.p, args.n, max(args.p ** args.n, 4)), args.r,
                        budget=_budget(args))
    psi = level.hopf.coproduct_gens[0]
    chi = level.hopf.antipode_gens[0]
    if args.format == "json":
        payload = {
            "p": args.p, "n": args.n, "r": args.r,
            "dim": level.dim,
            "socle_exponent": level.socle_exponent(),
            "psi_x": {"%d,%d" % level.hopf.square.algebra.basis[i]: int(c)
                      for i, c in enumerate(psi.vec) if c},
            "antipode_x": str(chi),
        }
        _emit(args, _json_dumps(payload))
    else:
        lines = [
            "H_%d at p=%d, n=%d: dim %d, socle generator x^%d"
            % (args.r, args.p, args.n, level.dim, level.socle_exponent()),
            "psi(x) = %s" % format_tensor_element(level.hopf, psi),
            "chi(x) = %s" % chi,
        ]
        _emit(args, "\n".join(lines))
    return EXIT_OK


def _cmd_tower_check(args) -> int:
    params = HondaParams(args.p, args.n, max(args.p ** args.n, 4))
    budget = _budget(args)
    s = 1 if args.s is None else args.s
    if params.q ** (args.r + s) <= budget:
        # pdiv_check reads level r+s+1; built first, its law serves every
        # smaller level as a slice instead of a cold build per level.  The F
        # of level r+s, the largest F read, is computed first for the same
        # reason: every smaller F is a slice of it
        honda_level(params, args.r + s + 1, max(budget, params.q ** (args.r + s + 1)))
        honda_level(params, args.r + s, budget).fgl.F
    axioms = {}
    for r in sorted({args.r, s, args.r + s}):
        rep = hopf_check(honda_level(params, r, budget).hopf)
        axioms["H_%d" % r] = rep.as_dict()
    tm = tower_maps(params, args.r, s, budget)
    pd = pdiv_check(params, args.r, s, budget)
    payload = {
        "p": args.p, "n": args.n, "r": args.r, "s": s,
        "axioms": axioms,
        "tower_maps": {
            "surj_is_hopf": tm.surj_is_hopf, "inj_is_hopf": tm.inj_is_hopf,
            "surj_surjective": tm.surj_surjective, "inj_injective": tm.inj_injective,
        },
        "pdiv": pd.as_dict(),
    }
    ok = all(a["all_pass"] for a in axioms.values()) and pd.all_pass and all(
        payload["tower_maps"].values()
    )
    payload["all_pass"] = ok
    if args.format == "json":
        _emit(args, _json_dumps(payload))
    else:
        lines = ["tower check p=%d n=%d r=%d s=%d: %s"
                 % (args.p, args.n, args.r, s, "PASS" if ok else "FAIL")]
        for k, v in axioms.items():
            lines.append("  %s axioms: %s" % (k, "pass" if v["all_pass"] else v))
        lines.append("  tower maps: %s" % payload["tower_maps"])
        lines.append("  pdiv: %s" % ("pass" if pd.all_pass else pd.as_dict()))
        _emit(args, "\n".join(lines))
    return EXIT_OK if ok else EXIT_AUDIT


def _profile_algebra(args, profile_text: str, var: str = "x") -> BorelAlgebra:
    """The Borel algebra of a comma-separated profile, in variables var
    (one variable) or var1, var2, ..."""
    try:
        profile = tuple(int(t) for t in profile_text.split(",") if t.strip())
    except ValueError:
        raise UsageError("profile must be comma-separated integers, e.g. 4,2")
    names = (var,) if len(profile) == 1 else tuple("%s%d" % (var, i + 1) for i in range(len(profile)))
    return BorelAlgebra(args.p, profile, names)


def _form_payload(A, form: FrobeniusForm) -> dict:
    return {
        "form": [int(c) for c in form.vec],
        "pairing_rank": A.dim,  # a Frobenius form's pairing is invertible
        "dual_basis": [[int(c) for c in v.vec] for v in form.dual_basis()],
    }


def _cmd_frob_check(args) -> int:
    A = _profile_algebra(args, args.profile)
    if args.covector == "canonical" or args.covector is None:
        form = canonical_form(A)
        payload = {"algebra": A.to_json(), "is_frobenius": True}
        payload.update(_form_payload(A, form))
    else:
        if args.covector == "aug":
            vec = np.zeros(A.dim, dtype=np.int64)
            vec[0] = 1
        else:
            el = _parse_element(A, args.covector)
            vec = el.vec
        ok, pairing, dual = is_frobenius_form(A, vec)
        payload = {
            "algebra": A.to_json(),
            "is_frobenius": ok,
            "form": [int(c) for c in vec],
            "pairing_rank": FpMatrix(pairing, A.p).rank(),
        }
        if ok:
            payload["dual_basis"] = [[int(c) for c in v.vec] for v in dual]
    _emit(args, _json_dumps(payload) if args.format == "json" else
          "\n".join("%s: %s" % kv for kv in sorted(payload.items())))
    return EXIT_OK


def _cmd_frob_gysin(args) -> int:
    A = _profile_algebra(args, args.source_profile)
    B = _profile_algebra(args, args.target_profile, "y")
    images = [_parse_element(B, t) for t in args.images.split(",")] if args.images else []
    try:
        f = AlgebraMap.from_generator_images(A, B, images)
        alpha = gysin(f, canonical_form(A), canonical_form(B))
    except ExactKernelError as ex:
        raise UsageError(str(ex))
    payload = {
        "source": A.to_json(),
        "target": B.to_json(),
        "map_matrix": f.matrix.tolist(),
        "gysin_matrix": alpha.matrix.tolist(),
    }
    payload.update(_form_payload(A, canonical_form(A)))
    _emit(args, _json_dumps(payload) if args.format == "json" else
          "gysin matrix (target -> source basis):\n%s" % alpha.matrix)
    return EXIT_OK


def _green_value_payload(v) -> dict:
    A = v.algebra
    payload = {"kind": v.kind, "dim": v.dim, "p": v.p, "n": v.n}
    if isinstance(A, Subalgebra):
        payload["ambient_profile"] = list(A.ambient.profile)
        payload["basis"] = A.basis_matrix.tolist()
    else:
        payload["profile"] = list(A.profile)
    payload["socle"] = [_element_json(A, z) for z in A.socle_basis()]
    payload["ind_one"] = _element_json(A, v.ind_one)
    return payload


def _cmd_green_value(args) -> int:
    name, G = _load_group(args)
    v = value_general(G, args.p, args.n, _budget(args))
    payload = {"group": name}
    payload.update(_green_value_payload(v))
    _emit(args, _json_dumps(payload) if args.format == "json" else
          "A(%s) at p=%d, n=%d: dim %d (%s); ind_one = %s"
          % (name, args.p, args.n, v.dim, v.kind, v.ind_one))
    return EXIT_OK


def _cmd_green_map(args, which: str) -> int:
    name, G = _load_group(args)
    if not args.subgroup:
        raise UsageError("green %s needs --subgroup" % which)
    H = _resolve_subgroup(G, args.subgroup, args.p)
    fx = SubgroupGreenFunctor(G, args.p, args.n, _budget(args))
    m = fx.res(G, H) if which == "res" else fx.ind(G, H)
    payload = {
        "group": name, "subgroup": args.subgroup, "p": args.p, "n": args.n,
        "map": which, "matrix": m.matrix.tolist(),
        "source_dim": m.source.dim, "target_dim": m.target.dim,
    }
    _emit(args, _json_dumps(payload) if args.format == "json" else
          "%s matrix:\n%s" % (which, m.matrix))
    return EXIT_OK


def _cmd_green_stable(args) -> int:
    name, G = _load_group(args)
    st = stable_elements(G, args.p, args.n, _budget(args))
    payload = {
        "group": name, "p": args.p, "n": args.n,
        "sylow_type": list(st.sylow.exponents),
        "lim_dim": st.lim_dim,
        "colim_dim": st.colim_dim,
        "lim_basis": [v.tolist() for v in st.lim_basis],
    }
    _emit(args, _json_dumps(payload) if args.format == "json" else
          "stable elements of A(%s): lim dim %d, colim dim %d (sylow type %s)"
          % (name, st.lim_dim, st.colim_dim, list(st.sylow.exponents)))
    return EXIT_OK


def _strip_ms(report_dict: dict) -> dict:
    for row in report_dict["checks"]:
        row["ms"] = 0.0
    return report_dict


def _cmd_audit_mackey(args) -> int:
    from .audit import audit_mackey

    name, G = _load_group(args)
    rep = audit_mackey(G, args.p, args.n, budget=_budget(args), group_name=name)
    d = rep.as_dict()
    if args.no_timing:
        d = _strip_ms(d)
    if args.format == "json":
        _emit(args, _json_dumps(d))
    else:
        _emit(args, "\n".join(rep.summary_lines()))
    return EXIT_AUDIT if rep.has_failures else EXIT_OK


def _cmd_audit_assumptions(args) -> int:
    from .audit import audit_assumptions, DEFAULT_BATTERY

    battery = [b.strip() for b in args.battery.split(",")] if args.battery else list(DEFAULT_BATTERY)
    rep = audit_assumptions(battery, args.p, args.n, _budget(args))
    d = rep.as_dict()
    if args.no_timing:
        d = _strip_ms(d)
    if args.format == "json":
        _emit(args, _json_dumps(d))
    else:
        _emit(args, "\n".join(rep.summary_lines()))
    return EXIT_AUDIT if rep.has_failures else EXIT_OK


# -- dispatch ------------------------------------------------------------------


# command -> (help, {subcommand: help}): the leaves of the argparse tree
_COMMANDS = {
    "fgl": ("formal group law commands", {"show": "print F(x,y) at a truncation"}),
    "tower": ("Honda tower commands", {"show": "print one level's Hopf data",
                                       "check": "Hopf axioms + p-divisibility checks"}),
    "frob": ("Frobenius form commands", {"check": "pairing rank / dual basis of a form",
                                         "gysin": "transfer adjoint to an algebra map"}),
    "green": ("Green functor values and maps", {
        "value": "A(G) with socle and ind_one",
        "res": "restriction matrix A(G) -> A(H)",
        "ind": "transfer matrix A(H) -> A(G)",
        "stable": "stable-elements computation inside A(P)"}),
    "audit": ("axiom audit reports", {"mackey": "MF1-MF5 / GF1-GF2 on one group",
                                      "assumptions": "assumption/proposition battery"}),
}


def _add_options(sp, cmd: str, sub: str) -> None:
    """The options of the leaf `cmd sub`."""
    sp.add_argument("--p", type=int, required=True, help="prime")
    sp.add_argument("--n", type=int, default=1, help="height (default 1)")
    if cmd == "tower":
        sp.add_argument("--r", type=int, default=1)
        sp.add_argument("--s", type=int, default=None)
    if cmd == "fgl":
        sp.add_argument("--deg", type=int, default=None, help="truncation degree")
    if cmd == "green" or (cmd, sub) == ("audit", "mackey"):
        sp.add_argument("--group", help="named group, e.g. S3, C6, V4, A4, C2xC4")
        sp.add_argument("--group-file", help="file with one generator per line")
    sp.add_argument("--budget", type=int, default=None,
                    help="size budget (default %d or GREENKERNEL_BUDGET)" % DEFAULT_SIZE_BUDGET)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--out", help="write output to this file")
    sp.add_argument("--no-timing", action="store_true",
                    help="zero the ms fields in audit reports")
    if (cmd, sub) == ("frob", "check"):
        sp.add_argument("--profile", required=True, help="algebra profile, e.g. 4,2")
        sp.add_argument("--covector", default=None,
                        help="'canonical' (default), 'aug', or an element expression")
    elif (cmd, sub) == ("frob", "gysin"):
        sp.add_argument("--source-profile", required=True)
        sp.add_argument("--target-profile", required=True)
        sp.add_argument("--images", required=True,
                        help="comma-separated images of the source generators, e.g. 'y^2'")
    elif cmd == "green" and sub in ("res", "ind"):
        sp.add_argument("--subgroup",
                        help="'sylow', '1', or ';'-separated generator cycles")
    elif (cmd, sub) == ("audit", "assumptions"):
        sp.add_argument("--battery", default=None,
                        help="comma-separated group names (default %s)" % ",".join(
                            ("C2", "C3", "C4", "V4", "C6", "S3", "A4")))


def build_parser(leaf: tuple[str, str] | None = None) -> _Parser:
    """The argparse tree; given leaf = (cmd, sub), only the path to that
    leaf, whose parsers equal their namesakes in the whole tree."""
    ap = _Parser(prog="greenkernel", description=__doc__,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    for cmd, (cmd_help, leaves) in _COMMANDS.items():
        if leaf is not None and cmd != leaf[0]:
            continue
        cmd_sub = sub.add_parser(cmd, help=cmd_help).add_subparsers(dest="sub", required=True)
        for name, leaf_help in leaves.items():
            if leaf is None or name == leaf[1]:
                _add_options(cmd_sub.add_parser(name, help=leaf_help), cmd, name)
    return ap


@functools.cache
def _parser(leaf: tuple[str, str] | None = None) -> _Parser:
    """The argparse tree for leaf (None: the whole tree), built on the
    first dispatch that needs it and reused after."""
    return build_parser(leaf)


def _leaf(argv) -> tuple[str, str] | None:
    """(cmd, sub) when argv starts with a known leaf, else None."""
    head = tuple(argv[:2])
    if len(head) == 2 and head[0] in _COMMANDS and head[1] in _COMMANDS[head[0]][1]:
        return head
    return None


def dispatch(argv) -> int:
    try:
        args = _parser(_leaf(argv)).parse_args(argv)
        _validate_config(args)
        if args.cmd == "fgl":
            return _cmd_fgl_show(args)
        if args.cmd == "tower":
            return _cmd_tower_show(args) if args.sub == "show" else _cmd_tower_check(args)
        if args.cmd == "frob":
            return _cmd_frob_check(args) if args.sub == "check" else _cmd_frob_gysin(args)
        if args.cmd == "green":
            if args.sub == "value":
                return _cmd_green_value(args)
            if args.sub in ("res", "ind"):
                return _cmd_green_map(args, args.sub)
            return _cmd_green_stable(args)
        if args.cmd == "audit":
            if args.sub == "mackey":
                return _cmd_audit_mackey(args)
            return _cmd_audit_assumptions(args)
        raise UsageError("unknown command")
    except UsageError as ex:
        print("usage error: %s" % ex, file=sys.stderr)
        return EXIT_USAGE
    except (BudgetError, ScopeError) as ex:
        msg = str(ex)
        if isinstance(ex, BudgetError):
            msg += " (required budget: %d)" % ex.required
        print("scope/budget error: %s" % msg, file=sys.stderr)
        return EXIT_SCOPE
    except ExactKernelError as ex:
        print("error: %s" % ex, file=sys.stderr)
        return EXIT_SCOPE


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
