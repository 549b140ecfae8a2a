#!/usr/bin/env python3
"""Fail when a library object file is linked by no shipped binary.

Standard library plus binutils' nm. Every member of BUILD/src/liblrd_*.a
must share at least one strong symbol (nm type T, D, B or R) with some
executable under BUILD/tools, BUILD/bench or BUILD/examples. A member
that shares none is code only the tests reach: wire it into a tool,
bench or example, or delete it. Members with no strong symbol at all
(core/failpoint.cpp without LRD_ENABLE_FAILPOINTS) are skipped.

The build must have benches and examples on and every target built:

  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DLRD_BUILD_TESTS=OFF
  cmake --build build -j
  python3 tools/check_linked_modules.py build

Exit status: 0 when the only unlinked members are exactly the
allowlisted ones, 1 otherwise, 2 on a missing or incomplete build.
"""

import glob
import os
import subprocess
import sys

# Test-only modules kept on purpose, with the reason each stays.
ALLOWED = {
    "gamma_epoch.cpp.o": "epoch law of the RandomModels oracle suite (tests/test_property_random.cpp)",
    "weibull_epoch.cpp.o": "epoch law of the RandomModels oracle suite (tests/test_property_random.cpp)",
    "gaussian_synthesis.cpp.o": "Durbin-Levinson reference for DurbinLevinson.MatchesDaviesHarteForFgn",
}
BINARY_DIRS = ("tools", "bench", "examples")
STRONG = set("TDBR")


def strong_symbols(path):
    """{member: set of strong symbols}; an executable is one member, ''."""
    out = subprocess.run(["nm", "-A", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    members = {}
    for line in out.splitlines():
        # PATH:MEMBER:VALUE TYPE NAME for an archive, PATH:VALUE TYPE NAME
        # for an executable (mangled names hold no ':' or blank).
        fields = line[len(path) + 1:].split()
        if len(fields) != 3 or fields[1] not in STRONG:
            continue
        member = fields[0].rpartition(":")[0]
        members.setdefault(member, set()).add(fields[2])
    return members


def is_executable(path):
    if not (os.path.isfile(path) and os.access(path, os.X_OK)):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: check_linked_modules.py BUILD_DIR", file=sys.stderr)
        return 2
    build = argv[1]
    archives = sorted(glob.glob(os.path.join(build, "src", "liblrd_*.a")))
    if not archives:
        print(f"no liblrd_*.a under {build}/src: build the project first", file=sys.stderr)
        return 2

    linked = set()
    for d in BINARY_DIRS:
        exes = [e for e in sorted(glob.glob(os.path.join(build, d, "*"))) if is_executable(e)]
        if not exes:
            print(f"no executables under {build}/{d}: configure with benches and examples ON "
                  "and build all targets", file=sys.stderr)
            return 2
        print(f"{d}: {len(exes)} executables")
        for exe in exes:
            for syms in strong_symbols(exe).values():
                linked |= syms

    unlinked, checked = [], 0
    for archive in archives:
        for member, syms in sorted(strong_symbols(archive).items()):
            checked += 1
            if not syms & linked:
                unlinked.append((os.path.basename(archive), member))

    failed = False
    for archive, member in unlinked:
        if member in ALLOWED:
            print(f"allowed: {archive}({member}): {ALLOWED[member]}")
        else:
            print(f"UNLINKED: {archive}({member}) shares no strong symbol with any shipped "
                  "binary; wire it into a tool, bench or example, or delete it")
            failed = True
    for member in sorted(set(ALLOWED) - {m for _, m in unlinked}):
        print(f"STALE ALLOWLIST: {member} is linked or gone; drop it from ALLOWED")
        failed = True
    print(f"{checked} members with strong symbols checked; "
          f"{len(unlinked)} unlinked, {len(ALLOWED)} allowlisted")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
