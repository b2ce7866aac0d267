#!/usr/bin/env python3
"""Repo-specific invariant lint for the vnfr source tree.

Enforces rules no generic linter knows about, tuned to the reliability
arithmetic in this codebase:

  float-eq      No raw ``==``/``!=`` between doubles in src/. Exact
                floating-point comparison silently misbehaves in the
                availability products; use ``common::almost_equal`` (or
                restructure). Deliberate exact tests (sparsity checks on
                literally-zeroed coefficients, rejection-sampling loops)
                carry a ``// vnfr-lint: allow(float-eq) <why>`` suppression.

  math-domain   ``std::log``/``std::log2``/``std::log10``/``std::pow``
                outside ``src/vnf/reliability.*`` and ``src/common/math.*``
                must have a ``VNFR_CHECK``/``VNFR_DCHECK`` guarding the
                operand's domain within the preceding few lines. A log of a
                non-positive value yields NaN, not a crash, and the NaN
                surfaces far from its origin.

  header-guard  Every header under src/ starts with ``#pragma once``.

  namespace     Every src/ file declares ``namespace vnfr...`` and closes
                it with a ``}  // namespace`` trailer comment. Pure
                preprocessor headers (every non-blank line starts with
                ``#`` — e.g. src/common/annotations.hpp, which must stay
                macro-only so SWIG/non-Clang builds see no tokens) are
                exempt: they define no entities to scope.

  using-std     ``using namespace std;`` is banned everywhere under src/.

  reliability-kernel
                No src/ file outside src/vnf/ names
                ``vnf::min_onsite_replicas`` or ``vnf::offsite_log_failure``
                in code. They are the per-call references of Eq. 3 and
                Eq. 10's per-site term; schedulers, models and the recovery
                engine read the constants tabulated once per catalog
                (``vnf::onsite_replicas`` over ``Catalog::replica_row``) or
                per scheduler (``vnf::OffsiteLogTable``), which return the
                same values bit for bit. Comments may mention them.

  faults-boundary
                No file under src/ outside src/serve/faults/, and no
                tools/*.cpp, includes a ``serve/faults/`` header. The fault
                harness (FaultyVfs, FaultyShipTransport, the disk-fault and
                failover studies) is built as vnfr_serve_faults for tests
                and benches only; production libraries and the CLI must
                not reach it.

  env-knob      Under src/, only src/common/thread_pool.cpp reads the
                environment (``std::getenv("VNFR_THREADS")``, which never
                changes a result). Any other ``getenv`` is a hidden runtime
                knob: behaviour a reader of the call site cannot see.

Suppression: ``// vnfr-lint: allow(<rule>) <justification>`` on the
finding's line or the line above; the justification is required (see
tools/vnfr_findings.py for the shared grammar and the
``suppression-format`` rule that polices it).

Exit status: 0 when clean, 1 with findings (one per line, grep-friendly
``path:line: rule: message``; ``--json`` for a machine-readable object).
Run directly or via the ``vnfr_lint`` ctest.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import vnfr_findings as vf  # noqa: E402
from vnfr_findings import Finding, strip_comments_and_strings  # noqa: E402

TOOL = "vnfr-lint"

RULES: dict[str, str] = {
    "float-eq": "raw ==/!= between doubles; use common::almost_equal",
    "math-domain": "std::log/log2/log10/pow without a VNFR_CHECK/VNFR_DCHECK "
                   "guarding the operand's domain nearby",
    "header-guard": "every header under src/ starts with '#pragma once'",
    "namespace": "every src/ file opens 'namespace vnfr...' and closes it "
                 "with a '}  // namespace' trailer (pure preprocessor "
                 "headers exempt)",
    "using-std": "'using namespace std;' is banned under src/",
    "reliability-kernel": "vnf::min_onsite_replicas / vnf::offsite_log_failure "
                          "are called only inside src/vnf/; elsewhere use "
                          "vnf::onsite_replicas or a vnf::OffsiteLogTable",
    "faults-boundary": "only src/serve/faults/ itself may include a "
                       "serve/faults/ header under src/ and tools/",
    "env-knob": "only src/common/thread_pool.cpp may read the environment "
                "under src/",
    vf.SUPPRESSION_RULE: vf.SUPPRESSION_RULE_DOC,
}

# Files where the log/pow domain is the module's own concern: the stable
# wrappers themselves.
MATH_DOMAIN_EXEMPT = ("src/common/math.", "src/vnf/reliability.")

# The per-call reference forms of the reliability constants, and the one
# module allowed to call them.
RELIABILITY_REFERENCE = re.compile(r"\b(min_onsite_replicas|offsite_log_failure)\b")
RELIABILITY_OWNER = "src/vnf/"

# The test-only fault harness, and the one directory allowed to include it.
FAULTS_INCLUDE = re.compile(r'^\s*#\s*include\s*[<"](serve/faults/[^>"]+)[>"]')
FAULTS_OWNER = "src/serve/faults/"

# Environment reads, and the one file allowed to make one (VNFR_THREADS).
ENV_READ = re.compile(r"\b(?:secure_)?getenv\s*\(")
ENV_OWNER = "src/common/thread_pool.cpp"

# std::log1p/std::expm1 are the *stable* helpers and are exempt; match only
# the raw calls whose domain can silently produce NaN.
RAW_MATH_CALL = re.compile(r"\bstd::(log|log2|log10|pow)\s*\(")

FLOAT_LITERAL = r"(?:\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)"
FLOAT_LITERAL_CMP = re.compile(
    rf"(?:{FLOAT_LITERAL}\s*[=!]=)|(?:[=!]=\s*[+-]?{FLOAT_LITERAL})"
)

DOUBLE_DECL = re.compile(r"\bdouble\s+(\w+)\s*(?:=|;|,|\)|\{)")

GUARD_WINDOW = 4  # lines above a raw math call searched for a VNFR_CHECK


def is_pure_preprocessor(code_lines: list[str]) -> bool:
    """True when every non-blank stripped line is a preprocessor directive
    or a continuation of one — a macro-only header with no entities."""
    continuation = False
    saw_directive = False
    for code in code_lines:
        stripped = code.strip()
        if not stripped:
            continuation = False
            continue
        if not continuation and not stripped.startswith("#"):
            return False
        saw_directive = True
        continuation = stripped.endswith("\\")
    return saw_directive


def faults_boundary(raw_lines: list[str], rel: str) -> list[Finding]:
    """Findings for every serve/faults/ include in a file outside it."""
    if rel.startswith(FAULTS_OWNER):
        return []
    findings = []
    for idx, raw in enumerate(raw_lines):
        m = FAULTS_INCLUDE.match(raw)
        if m:
            findings.append(Finding(
                rel, idx + 1, "faults-boundary",
                f"includes '{m.group(1)}', part of the test-only fault "
                "harness (vnfr_serve_faults); production code must not "
                "depend on it"))
    return findings


def lint_file(path: Path, rel: str) -> list[Finding]:
    findings: list[Finding] = []
    text = path.read_text(encoding="utf-8")
    raw_lines = text.splitlines()
    code_lines = [strip_comments_and_strings(l) for l in raw_lines]

    # --- header-guard / namespace conventions -------------------------------
    if rel.endswith(".hpp") and "#pragma once" not in text:
        findings.append(Finding(rel, 1, "header-guard",
                                "header lacks '#pragma once'"))
    if not is_pure_preprocessor(code_lines):
        if not re.search(r"\bnamespace\s+vnfr\b", text):
            findings.append(Finding(rel, 1, "namespace",
                                    "file does not open 'namespace vnfr...'"))
        elif not re.search(r"\}\s*//\s*namespace", text):
            findings.append(Finding(
                rel, 1, "namespace",
                "closing brace lacks '}  // namespace' comment"))

    findings.extend(faults_boundary(raw_lines, rel))

    # Identifiers declared double in this file, for the identifier-vs-
    # identifier comparison heuristic.
    double_names = set(DOUBLE_DECL.findall(text))
    ident_cmp = None
    if double_names:
        joined = "|".join(re.escape(n) for n in sorted(double_names))
        ident_cmp = re.compile(rf"\b({joined})\s*[=!]=\s*({joined})\b")

    for idx, code in enumerate(code_lines):
        lineno = idx + 1

        # --- using-std ------------------------------------------------------
        if re.search(r"\busing\s+namespace\s+std\b", code):
            findings.append(Finding(rel, lineno, "using-std",
                                    "'using namespace std' is banned"))

        # --- env-knob ---------------------------------------------------------
        if rel != ENV_OWNER and ENV_READ.search(code):
            findings.append(Finding(
                rel, lineno, "env-knob",
                f"environment read outside {ENV_OWNER}; pass the value in "
                "explicitly instead of a hidden runtime knob"))

        # --- reliability-kernel ---------------------------------------------
        if not rel.startswith(RELIABILITY_OWNER):
            ref = RELIABILITY_REFERENCE.search(code)
            if ref:
                findings.append(Finding(
                    rel, lineno, "reliability-kernel",
                    f"'{ref.group(1)}' outside src/vnf/; read the tabulated "
                    "constants (vnf::onsite_replicas with "
                    "Catalog::replica_row, or vnf::OffsiteLogTable)"))

        # --- float-eq -------------------------------------------------------
        hit = FLOAT_LITERAL_CMP.search(code)
        if not hit and ident_cmp is not None:
            hit = ident_cmp.search(code)
        if hit:
            findings.append(Finding(
                rel, lineno, "float-eq",
                f"raw ==/!= on double ('{hit.group(0).strip()}'); use "
                "common::almost_equal or add "
                "'// vnfr-lint: allow(float-eq) <why>'"))

        # --- math-domain ----------------------------------------------------
        if rel.startswith(MATH_DOMAIN_EXEMPT):
            continue
        call = RAW_MATH_CALL.search(code)
        if call:
            window_start = max(0, idx - GUARD_WINDOW)
            window = "\n".join(raw_lines[window_start: idx + 1])
            if "VNFR_CHECK" not in window and "VNFR_DCHECK" not in window:
                findings.append(Finding(
                    rel, lineno, "math-domain",
                    f"std::{call.group(1)} without a VNFR_CHECK/VNFR_DCHECK "
                    f"guarding the operand within the previous "
                    f"{GUARD_WINDOW} lines"))

    covered, suppression_findings = vf.scan_suppressions(
        raw_lines, tool=TOOL, rel=rel, known_rules=set(RULES))
    return vf.apply_suppressions(findings, covered) + suppression_findings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="vnfr_lint.py",
        description="repo-specific invariant lint over src/ (and the "
                    "faults boundary over tools/*.cpp)")
    parser.add_argument("root", nargs="?", default=None,
                        help="repo root (default: the checkout this tool is in)")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as a JSON object")
    args = parser.parse_args(argv[1:])

    root = (Path(args.root).resolve() if args.root
            else Path(__file__).resolve().parent.parent)
    src = root / "src"
    if not src.is_dir():
        print(f"vnfr_lint: no src/ directory under {root}", file=sys.stderr)
        return 2

    findings: list[Finding] = []
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".hpp", ".cpp"):
            continue
        rel = path.relative_to(root).as_posix()
        findings.extend(lint_file(path, rel))
    # tools/*.cpp carry only the faults-boundary rule.
    for path in sorted((root / "tools").glob("*.cpp")):
        findings.extend(faults_boundary(path.read_text(encoding="utf-8").splitlines(),
                                        path.relative_to(root).as_posix()))
    return vf.emit(findings, tool="vnfr_lint", rules=RULES,
                   json_mode=args.json)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
