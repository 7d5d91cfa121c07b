#!/usr/bin/env python3
"""Exported-value audit: every `val` in lib/**/*.mli needs a caller that ships.

A caller that ships is a reference from a .ml file in lib/, bin/, bench/,
perfbench/ or examples/ outside the value's own module. A value without
one is a finding: delete it, un-export it, or move it into test/. The
few values that tests need as a reference oracle or as the seam through
which they drive shipped code are listed in KEPT, each with a reason.

References are resolved by qualified name: wrapped libraries (Util,
Surrogate, Serve) by their wrapper outside the library and by the bare
module name inside it, nested modules by their path, module aliases
(`module P = Serve.Protocol`, `include Util.Metrics`) through the alias,
and `open M` / `let open M in` / `M.( ... )` by matching M's value
names as words in that file.

Exits 1 on a finding that KEPT does not list, and on a KEPT entry that
is no longer a finding.

Usage: python3 test/exports_audit.py
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPING = ["lib", "bin", "bench", "perfbench", "examples"]
TESTS = ["test"]

# Values that only tests call, kept on purpose.
KEPT = {
    # Reference oracles: a test compares shipped code against them.
    "Surrogate.Ranker.score_schedule":
        "oracle: the one-candidate scorer the ranker's folded batch must equal bit for bit",
    "Autodiff.slice_cols":
        "oracle: the per-loop head slice of the reference policy evaluation the branch-gathered policy is checked against",
    # Seams through which tests drive or observe shipped code.
    "Util.Rng.int64": "seam: the raw splitmix64 stream the RNG pins hash",
    "Serve.Supervisor.tick": "seam: one supervision round, driven by the fleet tests without the heartbeat thread",
    "Auto_scheduler.candidates": "seam: the exhaustive search's candidate stream, walked by the constraint, apply and digest tests",
    "Auto_scheduler.sampling_seed": "seam: the sampled search's seed, pinned to the op digest by the determinism test",
    "Autodiff.grad": "seam: a node's gradient; the pruning test checks a constant leaf's is never formed",
    "Autodiff.sum_all": "seam: the scalar loss the gradient checks differentiate through (mean_all is it scaled)",
    "Tensor.Workspace.reallocs": "seam: the arena's allocation count the reuse tests read",
    "Surrogate.Dataset_log.add": "seam: feeds the log directly for the dedup, rotation, merge and concurrency tests",
    "Surrogate.Model.predict": "seam: one prediction, compared bit for bit by the fit, checkpoint and constant-feature tests",
    # Process-global settings, left for the configuration work.
    "Sched_state.set_certify": "global setting: certification on or off, toggled by the certify test",
    "Sanitizer.set_budget": "global setting: the sanitizer's size budget, lowered by the budget-skip test",
    "Sanitizer.budget": "global setting: read back so the budget-skip test restores it",
}

IDENT = r"[a-z_][A-Za-z0-9_']*"
MODPATH = r"[A-Z][A-Za-z0-9_']*(?:\.[A-Z][A-Za-z0-9_']*)*"


def strip_comments_and_strings(src):
    """Blank out comments (nested) and string/char literals, keeping offsets."""
    out = []
    i, n, depth = 0, len(src), 0
    while i < n:
        c = src[i]
        if src.startswith("(*", i):
            depth += 1
            out.append("  ")
            i += 2
        elif depth > 0 and src.startswith("*)", i):
            depth -= 1
            out.append("  ")
            i += 2
        elif c == '"':
            # strings also occur inside comments; skip them either way
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            out.append(" " * (j + 1 - i))
            i = j + 1
        elif depth == 0 and c == "'" and re.match(r"'(\\[^']+|[^\\'])'", src[i:]):
            m = re.match(r"'(\\[^']+|[^\\'])'", src[i:])
            out.append(" " * len(m.group(0)))
            i += len(m.group(0))
        else:
            out.append(" " if depth > 0 and c != "\n" else c)
            i += 1
    return "".join(out)


def libraries():
    """Map each lib/ directory to its namespace prefix ('' if unwrapped)."""
    libs = {}
    for d in sorted(os.listdir(os.path.join(ROOT, "lib"))):
        dune = os.path.join(ROOT, "lib", d, "dune")
        if not os.path.exists(dune):
            continue
        text = open(dune).read()
        name = re.search(r"\(name\s+(\w+)\)", text).group(1)
        libs[d] = "" if "(wrapped false)" in text else name.capitalize()
    return libs


def module_key(wrapper, unit):
    return f"{wrapper}.{unit}" if wrapper else unit


def parse_mli(path, top):
    """Return the qualified names of the values an interface exports."""
    src = strip_comments_and_strings(open(path).read())
    tokens = re.findall(r"[A-Za-z_][A-Za-z0-9_']*|\(\s*[^\sA-Za-z0-9_()]+\s*\)|\S", src)
    vals = []
    stack = []  # (module name or None, collects values)
    pending = None
    i = 0
    while i < len(tokens):
        t = tokens[i]
        if t == "module" and i + 1 < len(tokens):
            if tokens[i + 1] == "type":
                pending = (None, False)
            else:
                pending = (tokens[i + 1], True)
        elif t in ("sig", "struct", "object", "begin"):
            if t == "sig" and pending is not None:
                stack.append(pending)
            else:
                stack.append((None, stack[-1][1] if stack else True))
            pending = None
        elif t == "end":
            if stack:
                stack.pop()
        elif t in ("val", "external") and i + 1 < len(tokens):
            if all(collect for _, collect in stack):
                inner = [m for m, _ in stack if m]
                name = tokens[i + 1].replace(" ", "")
                vals.append(".".join([top] + inner + [name]))
        i += 1
    return vals


def source_files(dirs):
    for d in dirs:
        for base, subdirs, files in os.walk(os.path.join(ROOT, d)):
            subdirs[:] = [s for s in subdirs if not s.startswith((".", "_"))]
            for f in sorted(files):
                if f.endswith(".ml"):
                    yield os.path.join(base, f)


def main():
    libs = libraries()
    wrappers = {w for w in libs.values() if w}
    exported = {}  # qualified value -> owning compilation unit key
    by_module = {}  # module key -> [value names]
    unit_of_file = {}
    modules_of_lib = {}
    aliases = {}  # global: module key -> module key (include-only units)
    for d, wrapper in libs.items():
        base = os.path.join(ROOT, "lib", d)
        for f in sorted(os.listdir(base)):
            if not f.endswith((".ml", ".mli")):
                continue
            unit = f.rsplit(".", 1)[0].capitalize()
            key = module_key(wrapper, unit)
            modules_of_lib.setdefault(d, set()).add(unit)
            unit_of_file[os.path.join(base, f)] = key
            if f.endswith(".mli"):
                for v in parse_mli(os.path.join(base, f), key):
                    exported[v] = key
                    mod, name = v.rsplit(".", 1)
                    by_module.setdefault(mod, []).append(name)
            elif not os.path.exists(os.path.join(base, f + "i")):
                m = re.fullmatch(r"\s*include\s+(" + MODPATH + r")\s*",
                                 strip_comments_and_strings(open(os.path.join(base, f)).read()))
                if m:
                    aliases[key] = m.group(1)

    def resolve(path, file_lib, local):
        parts = path.split(".")
        if parts[0] in local:
            parts = local[parts[0]].split(".") + parts[1:]
        if parts[0] not in wrappers and file_lib and libs[file_lib] \
                and parts[0] in modules_of_lib.get(file_lib, ()):
            parts = [libs[file_lib]] + parts
        key = ".".join(parts)
        for src, dst in aliases.items():
            if key == src or key.startswith(src + "."):
                key = dst + key[len(src):]
        return key

    callers = {v: set() for v in exported}
    own_use = {v: False for v in exported}

    def scan(path, kind):
        rel = os.path.relpath(path, ROOT)
        parts = rel.split(os.sep)
        file_lib = parts[1] if parts[0] == "lib" and len(parts) > 2 else None
        own = unit_of_file.get(path)
        src = strip_comments_and_strings(open(path).read())
        local = {}
        for m in re.finditer(r"\bmodule\s+([A-Z]\w*)\s*=\s*(" + MODPATH + r")\b(?!\s*\()", src):
            local[m.group(1)] = m.group(2)
        opened = set()
        for m in re.finditer(r"\bopen!?\s+(" + MODPATH + r")|(?<![.\w'])(" + MODPATH + r")\.\(", src):
            opened.add(resolve(m.group(1) or m.group(2), file_lib, local))
        hits = set()
        for m in re.finditer(r"(?<![.\w'])(" + MODPATH + r")\.(" + IDENT + r"|\(\s*[^\sA-Za-z0-9_()]+\s*\))", src):
            hits.add(resolve(m.group(1), file_lib, local) + "." + m.group(2).replace(" ", ""))
        counts = {}
        for w in re.findall(IDENT, src):
            counts[w] = counts.get(w, 0) + 1
        words = set(counts)
        for mod in opened:
            for name in by_module.get(mod, ()):
                if name in words:
                    hits.add(mod + "." + name)
        for v in hits:
            if v not in exported:
                continue
            if exported[v] == own:
                own_use[v] = True
            else:
                callers[v].add(kind)
        if own is not None:
            # unqualified use inside the defining unit, past its definition
            for v, unit in exported.items():
                if unit == own and counts.get(v.rsplit(".", 1)[1], 0) > 1:
                    own_use[v] = True

    for path in source_files(SHIPPING):
        scan(path, "ship")
    for path in source_files(TESTS):
        scan(path, "test")

    findings = {v: c for v, c in callers.items() if "ship" not in c}
    problems = 0
    for v in sorted(set(findings) - set(KEPT)):
        where = "tests only" if findings[v] else "no caller"
        inside = ", used in its module" if own_use[v] else ""
        problems += 1
        print(f"unlisted  {v} ({where}{inside})")
    for v in sorted(KEPT):
        if v not in exported:
            problems += 1
            print(f"stale     {v}: no longer exported; drop it from KEPT")
        elif v not in findings:
            problems += 1
            print(f"stale     {v}: now has a shipping caller; drop it from KEPT")
    print(f"{len(exported)} exported values, {len(findings)} without a shipping caller, "
          f"{len(KEPT)} kept, {problems} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
