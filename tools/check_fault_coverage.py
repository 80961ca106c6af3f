#!/usr/bin/env python3
"""Fault-site coverage lint.

Every injection site in support/fault.h exists because some failure path
needs deterministic exercise; a site no test ever arms is a failure path
nobody runs. This checker cross-references the Site enum and its name
table against the test tree and fails if any site is orphaned:

  * the enum in src/support/fault.h and kSiteNames in src/support/fault.cpp
    must agree on the site count, and names must be unique;
  * each spec name must be the kebab-case derivation of its enumerator
    (Site::kReplAppendDrop <-> "repl-append-drop"), so a table row pasted
    against the wrong enumerator fails loudly instead of silently renaming
    a site; one grandfathered name predates the rule (LEGACY_NAMES);
  * every site must be armed by at least one test, either programmatically
    (a `Site::kFoo` token) or through a spec string (its "kebab-name", the
    MGC_FAULT syntax) somewhere under tests/.

Run from anywhere: paths resolve relative to --root (default: the repo
containing this script). Wired into ctest under the `lint` label.
"""

import argparse
import os
import re
import sys

ENUM_RE = re.compile(r"enum\s+class\s+Site[^{]*\{(.*?)\}", re.S)
NAMES_RE = re.compile(r"kSiteNames\[[^\]]*\]\s*=\s*\{(.*?)\};", re.S)

# Names that predate the kebab-derivation rule and are baked into saved
# MGC_FAULT specs and docs; everything added later must derive.
LEGACY_NAMES = {
    "kCommitLogWrite": "commitlog-write",
}


def kebab_of(enumerator):
    """Site::kReplAppendDrop -> repl-append-drop (digits bind left: kG1EvacFail
    -> g1-evac-fail)."""
    body = enumerator[1:] if enumerator.startswith("k") else enumerator
    words = re.findall(r"[A-Z][a-z0-9]*", body)
    return "-".join(w.lower() for w in words)


def strip_comments(text):
    text = re.sub(r"//[^\n]*", "", text)
    return re.sub(r"/\*.*?\*/", "", text, flags=re.S)


def parse_enum(path):
    with open(path) as f:
        m = ENUM_RE.search(strip_comments(f.read()))
    if not m:
        sys.exit(f"error: no `enum class Site` found in {path}")
    names = re.findall(r"\b(k[A-Za-z0-9_]+)\b", m.group(1))
    return [n for n in names if n != "kNumSites"]


def parse_name_table(path):
    with open(path) as f:
        m = NAMES_RE.search(strip_comments(f.read()))
    if not m:
        sys.exit(f"error: no kSiteNames table found in {path}")
    return re.findall(r'"([^"]+)"', m.group(1))


def gather_test_text(root, dirs):
    chunks = []
    for base in dirs:
        top = os.path.join(root, base)
        for dirpath, _, names in os.walk(top):
            for n in sorted(names):
                if n.endswith((".cpp", ".h", ".cc", ".hpp")):
                    with open(os.path.join(dirpath, n)) as f:
                        chunks.append(f.read())
    return "\n".join(chunks)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    default_root = os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    ap.add_argument("--root", default=default_root, help="repo root")
    args = ap.parse_args()

    fault_h = os.path.join(args.root, "src", "support", "fault.h")
    fault_cpp = os.path.join(args.root, "src", "support", "fault.cpp")
    enumerators = parse_enum(fault_h)
    names = parse_name_table(fault_cpp)

    failures = []
    if len(enumerators) != len(names):
        failures.append(
            f"site count mismatch: {len(enumerators)} enumerators in "
            f"fault.h vs {len(names)} entries in kSiteNames (fault.cpp)")
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        failures.append(f"duplicate kSiteNames entries: {sorted(dupes)}")

    for enumr, name in zip(enumerators, names):
        want = LEGACY_NAMES.get(enumr, kebab_of(enumr))
        if name != want:
            failures.append(
                f"name/enum mismatch: Site::{enumr} maps to \"{name}\" in "
                f"kSiteNames but the kebab derivation is \"{want}\" — fix "
                f"the table row (or, for a pre-rule name, add it to "
                f"LEGACY_NAMES in this checker)")

    tests = gather_test_text(args.root, ["tests"])
    for enumr, name in zip(enumerators, names):
        by_token = re.search(rf"\bSite::{enumr}\b", tests) is not None
        by_spec = name in tests
        if not (by_token or by_spec):
            failures.append(
                f"orphaned fault site: Site::{enumr} (\"{name}\") is never "
                f"armed by any test under tests/ — add a test that arms it "
                f"(Site::{enumr} or an MGC_FAULT spec \"{name}:...\") or "
                f"delete the site")

    if failures:
        for f in failures:
            print(f"check_fault_coverage: {f}")
        return 1
    print(f"check_fault_coverage OK: {len(enumerators)} sites, all armed "
          f"by tests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
