#!/usr/bin/env python3
"""Fail when library code is kept by no shipped binary.

Standard library plus binutils' objdump and c++filt. The audit reads the
GNU ld link maps of every tool, figure, ablation, micro bench and example
(BUILD/tools, BUILD/bench, BUILD/examples) and of lrd_perfbench (a second
tree, built from perfbench/), and applies two rules to the members of
BUILD/src/liblrd_*.a:

  * a member none of whose sections any map keeps is unlinked: code only
    the tests reach;
  * a strong global function of a linked member is unreached when no map
    keeps its .text.<mangled> section. The key is the section name, not
    the member: a comdat copy is discarded in one member and kept from
    another.

Wire such code into a shipped binary, or delete it. The allowlists below
name what stays on purpose, each with its reason; an entry that is
reached, linked or gone fails the audit as stale.

The maps exist only in a dedicated audit build. It compiles at -O0 (at
-O2 a function inlined into its only caller in its own translation unit
is still emitted, then discarded, and would read as unreached), puts
each function in its own section, and replaces the link rule: CMake's
rule passes <LINK_FLAGS>, where the tools' ENABLE_EXPORTS puts an
-rdynamic that keeps every function alive.

  RULE='<CMAKE_CXX_COMPILER> <FLAGS> <OBJECTS> -o <TARGET> -Wl,--gc-sections -Wl,-Map=<TARGET>.map <LINK_LIBRARIES>'
  cmake -B build-audit -S . -G Ninja -DCMAKE_BUILD_TYPE=Debug -DLRD_BUILD_TESTS=OFF \\
      -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections" "-DCMAKE_CXX_LINK_EXECUTABLE=$RULE"
  cmake --build build-audit -j
  cmake -B build-audit-perfbench -S perfbench -G Ninja -DCMAKE_BUILD_TYPE=Debug \\
      -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections" "-DCMAKE_CXX_LINK_EXECUTABLE=$RULE"
  cmake --build build-audit-perfbench -j --target lrd_perfbench
  python3 tools/check_linked_modules.py build-audit build-audit-perfbench

Anonymous-namespace helpers are not tracked: one left without a caller
fails -Wunused-function under -DLRD_WERROR=ON.

Exit status: 0 when exactly the allowlisted code is unreached, 1
otherwise, 2 on a missing or incomplete audit build.
"""

import glob
import os
import re
import subprocess
import sys

# Test-only modules kept on purpose, with the reason each stays.
ALLOWED_MODULES = {
    "gamma_epoch.cpp.o": "epoch law of the RandomModels oracle suite (tests/test_property_random.cpp)",
    "weibull_epoch.cpp.o": "epoch law of the RandomModels oracle suite (tests/test_property_random.cpp)",
    "gaussian_synthesis.cpp.o": "Durbin-Levinson reference for DurbinLevinson.MatchesDaviesHarteForFgn",
}

HOOK = "test hook"
REF = "reference"
FIXTURE = "fixture"
# Test-only functions of linked modules kept on purpose, by demangled
# signature: hooks that reset or read state, independent computations a
# test checks shipped code against, and fixtures many tests of shipped
# code build their inputs from.
ALLOWED_FUNCTIONS = {
    "lrd::obs::bundle::reset_for_tests()":
        f"{HOOK}: re-arms the one-shot crash bundle between tests",
    "lrd::obs::flight::reset()":
        f"{HOOK}: empties the flight rings between tests",
    "lrd::obs::flight::total_recorded()":
        f"{HOOK}: counts recorded flight events",
    "lrd::obs::profiler::running()":
        f"{HOOK}: reads whether the sampling timer is armed",
    "lrd::obs::profiler::total_samples()":
        f"{HOOK}: counts profiler samples",
    "lrd::obs::Registry::size() const":
        f"{HOOK}: counts registered metrics",
    "lrd::obs::ProgressMeter::render[abi:cxx11]() const":
        f"{HOOK}: the progress line without a terminal",
    "lrd::numerics::fft_plan_cache_size()":
        f"{HOOK}: counts cached FFT plans",
    "lrd::runtime::SolverCache::compact()":
        f"{HOOK}: forces the cache file rewrite the crash tests interrupt",
    "lrd::runtime::RunManifest::total_cells() const":
        f"{HOOK}: reads the manifest's cell count",
    "lrd::runtime::RunManifest::cells_from(lrd::runtime::RunManifest::CellSource) const":
        f"{HOOK}: reads back which cells were solved and which served",
    "lrd::queueing::simulate_markov_fluid(lrd::queueing::BirthDeathFluidSpec const&, "
    "double, unsigned long, unsigned long)":
        f"{REF}: Monte Carlo check of MarkovFluidQueue::finite_buffer",
    "lrd::queueing::simulate_markov_fluid(lrd::queueing::OnOffFluidSpec const&, "
    "double, unsigned long, unsigned long)":
        f"{REF}: Monte Carlo check of MarkovFluidQueue::finite_buffer",
    "lrd::traffic::FluidSource::sample_epochs(unsigned long, lrd::numerics::Rng&) const":
        f"{REF}: EmpiricalAcfTracksClosedForm checks Eq. 8 against it",
    "lrd::traffic::FluidSource::sample_trace(unsigned long, double, lrd::numerics::Rng&) const":
        f"{REF}: EmpiricalAcfTracksClosedForm checks Eq. 8 against it",
    "lrd::dist::Marginal::sample_index(lrd::numerics::Rng&) const":
        f"{REF}: the rate draws of FluidSource's sample paths",
    "lrd::numerics::Matrix::multiply(std::vector<double, std::allocator<double> > const&) const":
        f"{REF}: residual check of solve_linear_system",
    "lrd::traffic::RateTrace::total_work() const":
        f"{REF}: the work-conservation checks",
    "lrd::queueing::occupancy_tail(lrd::queueing::SolverResult const&, double)":
        f"{REF}: RandomModels' stochastic-order check on the solver's pmfs",
    "lrd::dist::UniformEpoch::UniformEpoch(double, double)":
        f"{FIXTURE}: a RandomModels epoch law",
    "lrd::dist::UniformEpoch::ccdf_open(double) const":
        f"{FIXTURE}: a RandomModels epoch law",
    "lrd::dist::UniformEpoch::excess_mean(double) const":
        f"{FIXTURE}: a RandomModels epoch law",
    "lrd::dist::UniformEpoch::sample(lrd::numerics::Rng&) const":
        f"{FIXTURE}: a RandomModels epoch law",
    "lrd::dist::UniformEpoch::variance() const":
        f"{FIXTURE}: a RandomModels epoch law",
    "lrd::numerics::upper_incomplete_gamma(double, double)":
        f"{FIXTURE}: the GammaEpoch law of RandomModels",
    "lrd::numerics::regularized_gamma_q(double, double)":
        f"{FIXTURE}: the GammaEpoch law of RandomModels",
    "lrd::numerics::Rng::normal(double, double)":
        f"{FIXTURE}: Gaussian test inputs",
    "lrd::numerics::Rng::uniform(double, double)":
        f"{FIXTURE}: uniform test inputs",
    "lrd::numerics::Rng::lognormal(double, double)":
        f"{FIXTURE}: lognormal test inputs",
    "lrd::dist::Marginal::constant(double)":
        f"{FIXTURE}: single-rate marginals with closed-form answers",
    "lrd::dist::TruncatedPareto::atom_mass() const":
        f"{FIXTURE}: the atom at T_c the epoch and solver tests check",
    "lrd::analysis::LognormalFit::mean() const":
        f"{FIXTURE}: the moment check of the lognormal fit",
    "lrd::traffic::RateTrace::head(unsigned long) const":
        f"{FIXTURE}: short traces cut from long ones",
}

BINARY_DIRS = ("tools", "bench", "examples")
ARCHIVE_RE = re.compile(r"liblrd_[^/(]*\.a\(([^)]*)\)$")
# A kept input section: " NAME ADDR SIZE FILE", or NAME alone with the
# rest on the next line when the name is long.
SECTION_RE = re.compile(r"^ (\.\S+)(?:\s+0x([0-9a-f]+)\s+0x([0-9a-f]+)\s+(\S.*))?$")
PLACEMENT_RE = re.compile(r"^\s+0x([0-9a-f]+)\s+0x([0-9a-f]+)\s+(\S.*)$")


def kept_sections(path):
    """[(section, size, file)] of the input sections a link map keeps."""
    kept, pending, in_map = [], None, False
    with open(path, encoding="utf-8", errors="replace") as f:
        for line in f:
            line = line.rstrip("\n")
            if not in_map:
                in_map = line.startswith("Linker script and memory map")
                continue
            if pending is not None:
                m = PLACEMENT_RE.match(line)
                if m:
                    kept.append((pending, int(m.group(2), 16), m.group(3)))
                pending = None
                continue
            m = SECTION_RE.match(line)
            if not m:
                continue
            if m.group(2) is None:
                pending = m.group(1)
            else:
                kept.append((m.group(1), int(m.group(3), 16), m.group(4)))
    if not in_map:
        raise ValueError(f"{path} is not a GNU ld link map")
    return kept


def archive_symbols(path):
    """{member: [(flags, section, name)]} of every defined symbol."""
    out = subprocess.run(["objdump", "-t", path], check=True, capture_output=True,
                         text=True).stdout
    members, current = {}, None
    for line in out.splitlines():
        if " file format " in line:
            current = line.split(":", 1)[0]
            members.setdefault(current, [])
            continue
        # VALUE FLAGS(7) SECTION<TAB>SIZE NAME
        if current is None or "\t" not in line or len(line) < 26:
            continue
        head, _, tail = line.partition("\t")
        flags, section = head[17:24], head[25:]
        name = tail.split()[-1] if tail.split() else ""
        if section in ("*UND*", "*ABS*") or not name:
            continue
        members[current].append((flags, section, name))
    return members


def demangle(names):
    if not names:
        return {}
    out = subprocess.run(["c++filt"], input="\n".join(names) + "\n", check=True,
                         capture_output=True, text=True).stdout.splitlines()
    return dict(zip(names, out))


def link_maps(builds):
    """Maps of the shipped binaries: BUILD/{tools,bench,examples}/*.map
    of the first tree, the top-level *.map of each further one."""
    maps = []
    for d in BINARY_DIRS:
        found = sorted(glob.glob(os.path.join(builds[0], d, "*.map")))
        if not found:
            raise ValueError(f"no link maps under {builds[0]}/{d}: configure the audit build "
                             "(see --help) with benches and examples ON and build all")
        print(f"{d}: {len(found)} link maps")
        maps += found
    for build in builds[1:]:
        found = sorted(glob.glob(os.path.join(build, "*.map")))
        if not found:
            raise ValueError(f"no link maps under {build}: build it with the audit link rule")
        print(f"{build}: {len(found)} link maps")
        maps += found
    return maps


def main(argv):
    if len(argv) < 2 or argv[1] in ("-h", "--help"):
        print(__doc__.strip())
        print("\nusage: check_linked_modules.py BUILD [PERFBENCH_BUILD ...]")
        return 0 if len(argv) >= 2 else 2
    builds = argv[1:]
    archives = sorted(glob.glob(os.path.join(builds[0], "src", "liblrd_*.a")))
    if not archives:
        print(f"no liblrd_*.a under {builds[0]}/src: build the project first", file=sys.stderr)
        return 2
    kept_names, kept_members = set(), set()
    try:
        maps = link_maps(builds)
        for path in maps:
            for section, size, owner in kept_sections(path):
                kept_names.add(section)
                m = ARCHIVE_RE.search(owner)
                if m and size > 0:
                    kept_members.add(m.group(1))
    except ValueError as e:
        print(e, file=sys.stderr)
        return 2

    unlinked, unreached, members_checked, functions_checked = [], {}, 0, 0
    for archive in archives:
        lib = os.path.basename(archive)
        for member, syms in sorted(archive_symbols(archive).items()):
            strong = [s for s in syms if s[0][0] == "g" and s[0][1] != "w"]
            if not strong:
                continue  # e.g. core/failpoint.cpp without LRD_ENABLE_FAILPOINTS
            members_checked += 1
            if member not in kept_members:
                unlinked.append((lib, member))
                continue
            for flags, section, name in strong:
                if flags[6] != "F":
                    continue
                if section == ".text":
                    print(f"{lib}({member}) was compiled without -ffunction-sections: "
                          "configure the audit build (see --help)", file=sys.stderr)
                    return 2
                functions_checked += 1
                if section not in kept_names:
                    unreached.setdefault(section, (name, f"{lib}({member})"))

    failed = False
    for lib, member in unlinked:
        if member in ALLOWED_MODULES:
            print(f"allowed module: {lib}({member}): {ALLOWED_MODULES[member]}")
        else:
            print(f"UNLINKED: {lib}({member}) has no section any shipped binary keeps; "
                  "wire it into a tool, bench or example, or delete it")
            failed = True
    for member in sorted(set(ALLOWED_MODULES) - {m for _, m in unlinked}):
        print(f"STALE ALLOWLIST: module {member} is linked or gone; drop it from ALLOWED_MODULES")
        failed = True

    names = demangle(sorted({name for name, _ in unreached.values()}))
    found = {}
    for name, where in unreached.values():
        found.setdefault(names[name], where)
    for sig, where in sorted(found.items()):
        if sig in ALLOWED_FUNCTIONS:
            print(f"allowed function: {sig}: {ALLOWED_FUNCTIONS[sig]}")
        else:
            print(f"UNREACHED: {sig} in {where} is kept by no shipped binary; "
                  "give it a shipped caller, or delete it")
            failed = True
    for sig in sorted(set(ALLOWED_FUNCTIONS) - set(found)):
        print(f"STALE ALLOWLIST: {sig} is reached or gone; drop it from ALLOWED_FUNCTIONS")
        failed = True

    print(f"{len(maps)} link maps; {members_checked} members checked, {len(unlinked)} unlinked, "
          f"{len(ALLOWED_MODULES)} allowlisted; {functions_checked} functions checked, "
          f"{len(found)} unreached, {len(ALLOWED_FUNCTIONS)} allowlisted")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
