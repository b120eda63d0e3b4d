#!/usr/bin/env python3
"""dcfa_lint: repo-specific protocol-hygiene lint for the DCFA-MPI tree.

Seventeen rule families, each encoding an invariant the generic toolchain cannot
see (docs/checking.md has the rationale and the paper references):

  raw-post        ib::Hca::post_send/post_recv may only be called from the
                  transport layers (src/ib, src/verbs, src/dcfa,
                  src/baselines) and the two mpi files that own the data
                  path (engine.cpp, rma.cpp). Everything else must go
                  through mpi::Engine so DcfaCheck sees every packet.
  unchecked-result  resource-creating verbs (reg_mr, create_cq, create_qp,
                  alloc_pd, alloc_buffer) must not have their result
                  discarded; a dropped handle is a leak the sim never
                  reclaims. ([[nodiscard]] backs this at compile time; the
                  lint catches pre-C++17 idioms like `(void)` casts too.)
  wire-struct     structs that cross the simulated wire (PacketHeader,
                  PacketTail, CmdHeader, RespHeader, OffloadMrInfo) must
                  use fixed-width field types and carry a
                  trivially-copyable static_assert; `int`/`size_t` fields
                  change layout between host and co-processor ABIs.
  naked-memcpy    src/mpi/engine.cpp must not memcpy into an endpoint's
                  registered blocks (remote_block, local_block) directly;
                  mpi/wire.hpp's bounds-checked put/get helpers are the
                  only sanctioned path. (ib/hca.cpp is exempt: it *is*
                  the simulated DMA engine.)
  rma-epoch       work requests (ib::SendWr) may only be built in the
                  files whose entry points run the window epoch hooks
                  (engine.cpp, rma.cpp, protocol.cpp; engine.hpp declares
                  them). Windows and channels pass an opcode to
                  Engine::rma_post instead. A raw RDMA post anywhere else in
                  src/mpi bypasses chk().rma_remote_access and the
                  passive-target epoch ledgers — DcfaCheck would be blind
                  to the access.
  raw-context-switch  the fiber switch routine (dcfa_fiber_switch) may
                  only appear in src/sim/fiber.cpp (Fiber::resume/yield),
                  and no ucontext API (getcontext, makecontext,
                  setcontext, swapcontext, ucontext_t, <ucontext.h>) may
                  appear anywhere in src/. A context switch anywhere else
                  escapes the engine's event queue, which breaks both the
                  determinism contract and schedule exploration
                  (DCFA_SIM_SCHED=explore can only permute decisions that
                  flow through Engine::schedule_at); a ucontext switch is
                  also a second switch mechanism that costs a
                  sigprocmask system call per switch.
  sim-os-thread   no std::thread and no std::condition_variable anywhere in
                  src/. Every simulated rank is a fiber resumed inline on
                  the engine's thread; an OS thread in the library would be
                  a second execution backend whose scheduling the engine
                  neither orders nor replays. (The test deadline watchdog
                  in tests/ is the one OS thread the repo runs.)
  endpoint-mr     in src/mpi/, endpoint memory (the remote_block and
                  local_block of mpi::Engine::Endpoint) is
                  registered and deregistered only inside the lifecycle
                  helpers Engine::reg_endpoint / Engine::dereg_endpoint.
                  Setup, the reconnect rebuild and finalize all go through
                  them; an inline reg_mr/dereg_mr copy is how the three
                  used to drift apart (a rebuilt MR leaking, a landing
                  route left stale).
  dma-resolve     no AddressSpace::resolve call in src/ib/. The HCA reaches
                  memory only through registrations: reg_mr pins the
                  window once and every DMA landing moves bytes through
                  MemoryRegion::host. A resolve there is a per-landing
                  map search the registration already did, and it bypasses
                  the pin that keeps a freed buffer's storage valid until
                  dereg.
  telemetry       no Tracer::current, Tracer::install or sim::Log:: in src/,
                  and no std::to_string(/std::string( inside the argument
                  list of a telemetry call (span, instant, counter, event,
                  log). Tracing belongs to one cluster's sim::Engine, and an
                  event is a format literal plus its fields, formatted only
                  when recorded or echoed; a string built at the call site
                  costs an allocation on every event even with tracing off.
  getenv          getenv may appear in src/ only in src/sim/fiber.cpp
                  (SchedConfig::from_env), src/sim/check.cpp (DCFA_CHECK)
                  and src/sim/trace.cpp (DCFA_SIM_LOG). Every other tunable
                  is a sim::Platform field; an environment read elsewhere
                  is a second, invisible source for a value the platform
                  description claims to own.
  catch-switch    no wait(, wait_on(, wait_until( or block_until( call
                  inside a catch handler's braces in src/. A fiber that
                  blocks there switches away while the C++ runtime's
                  per-thread caught-exception stack holds its exception;
                  the switch does not carry that stack, so a second fiber
                  catching meanwhile corrupts it (docs/simulator.md).
  signaled-post   in src/mpi/, the CQE-callback table Engine::outstanding_
                  is written (outstanding_[, .emplace, .insert) only inside
                  Engine::post_signaled, which assigns the wr_id, registers
                  the callback and posts. An inline registration is how
                  wr_id order and the signaled flag drift between the
                  eager, rendezvous, RMA and retry paths.
  offload-stage   in src/mpi/, the offloading send buffer is decided only
                  inside Engine::stage_offload: no shadow_cache_->get(,
                  sync_offload_mr( or offload_send_threshold elsewhere.
                  Rendezvous sends, window puts and channel writes all ask
                  the helper, so they share one eligibility rule and one
                  CmdError fallback to a plain MR.
  bootstrap-handshake
                  in src/mpi/, the connection board's handshake calls
                  (Bootstrap publish, request, take_requests, poke and the
                  epoch try_get) appear only inside the handshake
                  functions: Engine::open_endpoint, establish_endpoint,
                  await_peer, service_requests, maybe_start_reconnect and
                  perform_reconnect. The eager mesh, first-touch wiring and
                  reconnection share that one publish/request/await path;
                  a board call elsewhere is a second handshake.
  one-wait        in src/mpi/, wait_on(wake_) and `wake_pending_ = false`
                  appear only inside Engine::block_until, the one
                  level-triggered wait: every blocking call hands it a pass.
                  An inline wait loop is how a wake that lands during a pass
                  gets lost, or a second, timed poll creeps back in. A loop
                  reports once.
  one-ack         in src/mpi/, Endpoint::consumed_by_peer (how far the peer
                  has proven consumption of my packets) is assigned only
                  inside Engine::apply_credit and the endpoint reset in
                  Engine::perform_reconnect. A credit from the cell and one
                  piggybacked on a packet header are one ack rule: both
                  free slots, purge the delivered records and finish the
                  tracked packets they cover. A second assignment is how a
                  credit source would advance the counter and skip the ack.

A file can waive one rule with a justified marker comment:

    // dcfa-lint: allow-file(raw-post) -- benchmarks the raw verbs path

The justification after `--` is mandatory; a bare waiver is itself a
finding. A waiver whose rule would report nothing in that file is *stale*
and is itself a finding — run with --prune to delete stale waivers in
place. Exit status is the number of findings (0 == clean).

If clang-tidy and build/compile_commands.json are present, the configured
.clang-tidy checks run over the same file set; when either is missing the
step is skipped with a note (the CI lint job installs clang-tidy, dev
containers need not).
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Directories scanned for C++ sources.
SCAN_DIRS = ["src", "tests", "bench", "examples"]
CPP_SUFFIXES = {".cpp", ".hpp"}

# raw-post: layers that legitimately speak to the HCA model directly.
RAW_POST_ALLOWED = [
    "src/ib/",
    "src/verbs/",
    "src/dcfa/",
    "src/baselines/",
    "src/mpi/engine.cpp",
    "src/mpi/rma.cpp",
]

# wire-struct: file -> structs that cross the simulated wire in that file.
# (PacketTail is a bare using-alias of std::uint32_t, not a struct.)
WIRE_STRUCTS = {
    "src/mpi/packet.hpp": ["PacketHeader"],
    "src/dcfa/cmd.hpp": ["CmdHeader", "RespHeader", "OffloadMrInfo"],
}
# Field types allowed in wire structs: fixed-width ints and repo typedefs
# that are themselves fixed-width (see their definitions).
WIRE_TYPE_OK = re.compile(
    r"^(?:std::)?u?int(?:8|16|32|64)_t$"
    r"|^(?:mem::)?SimAddr$|^(?:ib::)?MKey$|^(?:ib::)?Qpn$|^(?:ib::)?Lid$"
    r"|^Handle$|^CmdOp$|^CmdStatus$|^PacketType$|^std::byte$"
)

# naked-memcpy: files where raw memcpy is banned outright (wire.hpp covers
# every legitimate copy), plus destination substrings that indicate a
# registered-MR target anywhere in src/mpi.
MEMCPY_BANNED_FILES = ["src/mpi/engine.cpp"]
MEMCPY_MR_DESTS = re.compile(
    r"memcpy\s*\(\s*(?:ep(?:\.|->))?(?:remote_block|local_block)\b"
)

UNCHECKED_CALL = re.compile(
    r"^\s*(?:\(void\)\s*)?[A-Za-z_]\w*(?:\.|->)"
    r"(?:reg_mr|create_cq|create_qp|alloc_pd|alloc_buffer)\s*\("
)

RAW_POST_CALL = re.compile(r"(?:\.|->)post_(?:send|recv)\s*\(")

# rma-epoch: the only src/mpi files allowed to build RDMA work requests —
# their entry points are the ones that run the checker's epoch hooks.
RMA_EPOCH_ALLOWED = [
    "src/mpi/engine.cpp",
    "src/mpi/engine.hpp",
    "src/mpi/rma.cpp",
    "src/mpi/protocol.cpp",
]
WORK_REQUEST = re.compile(r"\bSendWr\b")

# raw-context-switch: the one file that owns context switching. Everything
# the simulator runs must block/resume through Engine::schedule_at so that
# schedule exploration (and its replay tokens) covers every interleaving
# decision; a stray switch would be an invisible scheduling choice. The
# ucontext API is out of src/ altogether: the library has one switch.
FIBER_SWITCH_ALLOWED = ["src/sim/fiber.cpp"]
FIBER_SWITCH = re.compile(r"\bdcfa_fiber_switch\b")
UCONTEXT_API = re.compile(r"\b(?:ucontext_t|(?:get|set|make|swap)context)\b")
UCONTEXT_HEADER = re.compile(r"#\s*include\s*[<\"](?:sys/)?ucontext\.h[>\"]")

# sim-os-thread: the simulator has exactly one execution backend (fibers on
# the engine's thread); OS threads and their wake-up primitive stay out of
# the library.
OS_THREAD = re.compile(r"\bstd::(?:thread|condition_variable(?:_any)?)\b")

# endpoint-mr: the helper pair that owns endpoint-memory registration, and
# what endpoint memory looks like at a reg_mr/dereg_mr call site (one of the
# two Endpoint blocks that EndpointLayout lays out).
ENDPOINT_MR_HELPERS = ("reg_endpoint", "dereg_endpoint")
ENDPOINT_REGION = re.compile(r"(?:\.|->)(?:remote_block|local_block)\b")
MR_CALL = re.compile(r"\b(?:de)?reg_mr\s*\(")

# dma-resolve: the HCA model's data motion goes through the MR's pinned host
# view; a simulated-address lookup in src/ib/ is the pre-registration path.
DMA_RESOLVE = re.compile(r"(?:\.|->|\bAddressSpace::)\s*resolve\s*\(")

# telemetry: the deleted process-global tracer and logger, and call sites
# that build strings for a telemetry call whether or not it records.
TELEMETRY_GLOBAL = re.compile(r"\bTracer::(?:current|install)\b|\bsim::Log::")
TELEMETRY_CALL = re.compile(
    r"(?:\.|->)\s*(?:span|instant|counter|event|log)\s*\(")
STRING_BUILD = re.compile(r"\bstd::(?:to_string|string)\s*\(")

# getenv: the library's environment knobs live in these three files.
GETENV_ALLOWED = ["src/sim/fiber.cpp", "src/sim/check.cpp",
                  "src/sim/trace.cpp"]
GETENV = re.compile(r"\b(?:secure_)?getenv\b")

# catch-switch: a handler and the blocking calls that switch fibers.
CATCH = re.compile(r"\bcatch\s*\(")
BLOCKING_CALL = re.compile(r"\b(?:wait|wait_on|wait_until|block_until)\s*\(")

# signaled-post: the one helper that registers CQE callbacks, and what a
# registration looks like.
SIGNALED_POST_HELPERS = ("post_signaled",)
OUTSTANDING_WRITE = re.compile(
    r"\boutstanding_\s*"
    r"(?:\[|\.\s*(?:emplace\w*|insert\w*|try_emplace)\s*\()")

# offload-stage: the one helper that decides the offloading send buffer,
# and the pieces of that decision.
OFFLOAD_STAGE_HELPERS = ("stage_offload",)
OFFLOAD_STAGE = re.compile(
    r"\bshadow_cache_\s*->\s*get\s*\(|\bsync_offload_mr\s*\(|"
    r"\boffload_send_threshold\b")

# bootstrap-handshake: the functions that make up the connection handshake,
# and the board calls only they may make.
HANDSHAKE_HELPERS = ("open_endpoint", "establish_endpoint", "await_peer",
                     "service_requests", "maybe_start_reconnect",
                     "perform_reconnect")
HANDSHAKE_CALL = re.compile(
    r"(?:\.|->)\s*(?:publish|request|take_requests|poke|try_get)\s*\(")

# one-wait: the one blocking primitive, and the two halves of a wait loop
# that only it may hold (the member's declaration is not a clear).
ONE_WAIT_HELPERS = ("block_until",)
ONE_WAIT = re.compile(
    r"\bwait_on\s*\(\s*wake_\s*\)|(?<!bool )\bwake_pending_\s*=\s*false\b")

# one-ack: the one function that applies a credit (and the reconnect that
# resets it), and what an assignment looks like (the member's declaration
# is not one).
ONE_ACK_HELPERS = ("apply_credit", "perform_reconnect")
ONE_ACK = re.compile(
    r"(?<!std::uint64_t )\bconsumed_by_peer\s*(?:[-+*/%&|^]?=(?!=)|\+\+|--)"
    r"|(?:\+\+|--)\s*(?:\w+\s*(?:\.|->)\s*)*consumed_by_peer\b")

WAIVER = re.compile(r"//\s*dcfa-lint:\s*allow-file\((?P<rule>[\w-]+)\)(?P<just>.*)")

findings: list[str] = []
# Potential findings for the file currently being scanned, with waivers
# ignored. main() applies the file's waivers afterwards — which is what lets
# it notice *stale* waivers (a waived rule that reports nothing).
file_findings: list[tuple[Path, int, str, str]] = []


def finding(path: Path, lineno: int, rule: str, msg: str) -> None:
    file_findings.append((path, lineno, rule, msg))


def emit(path: Path, lineno: int, rule: str, msg: str) -> None:
    findings.append(f"{path.relative_to(ROOT)}:{lineno}: [{rule}] {msg}")


def strip_comments(line: str) -> str:
    # Good enough for lint: drop // comments (waivers are parsed separately)
    # and string literals so quoted code can't trip call regexes.
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    return line.split("//", 1)[0]


def file_waivers(text: str, path: Path) -> dict[str, int]:
    """Justified waivers in `text` as {rule: first line number}. Unjustified
    waivers are reported immediately (they are never valid)."""
    waived: dict[str, int] = {}
    for i, line in enumerate(text.splitlines(), 1):
        m = WAIVER.search(line)
        if not m:
            continue
        just = m.group("just").strip()
        if not just.startswith("--") or len(just.lstrip("- ").strip()) < 8:
            emit(path, i, "waiver",
                 "allow-file waiver without a justification (`-- reason`)")
            continue
        waived.setdefault(m.group("rule"), i)
    return waived


def prune_stale_waivers(path: Path, linenos: list[int]) -> None:
    """Delete the waiver comment at each 1-based line number; drop the whole
    line when nothing but the waiver (and whitespace) lives on it."""
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    doomed = set(linenos)
    out: list[str] = []
    for i, line in enumerate(lines, 1):
        if i not in doomed:
            out.append(line)
            continue
        kept = WAIVER.sub("", line)
        if kept.strip():
            out.append(kept.rstrip() + ("\n" if line.endswith("\n") else ""))
    path.write_text("".join(out), encoding="utf-8")


def check_raw_post(path: Path, rel: str, lines: list[str]) -> None:
    if any(rel.startswith(a) or rel == a for a in RAW_POST_ALLOWED):
        return
    for i, line in enumerate(lines, 1):
        if RAW_POST_CALL.search(strip_comments(line)):
            finding(path, i, "raw-post",
                    "direct post_send/post_recv outside the transport layers; "
                    "route through mpi::Engine (or add a justified waiver)")


def check_unchecked_result(path: Path, rel: str, lines: list[str]) -> None:
    prev = ""
    for i, line in enumerate(lines, 1):
        code = strip_comments(line)
        # A line that merely continues an assignment / argument list from the
        # previous line is not a discarded result.
        continuation = prev.rstrip().endswith(("=", "(", ",", "+", "?", ":",
                                               "return", "&&", "||"))
        if not continuation and UNCHECKED_CALL.match(code):
            finding(path, i, "unchecked-result",
                    "result of a resource-creating verb is discarded; the "
                    "handle leaks and can never be deregistered")
        if code.strip():
            prev = code


def check_wire_structs(path: Path, rel: str, text: str) -> None:
    if rel not in WIRE_STRUCTS:
        return
    for struct in WIRE_STRUCTS[rel]:
        m = re.search(r"struct\s+" + struct + r"\s*\{", text)
        if not m:
            finding(path, 1, "wire-struct",
                    f"expected wire struct {struct} not found")
            continue
        body_start = m.end()
        lineno = text.count("\n", 0, body_start) + 1
        depth = 1
        pos = body_start
        while pos < len(text) and depth:
            if text[pos] == "{":
                depth += 1
            elif text[pos] == "}":
                depth -= 1
            pos += 1
        body = text[body_start:pos - 1]
        for off, line in enumerate(body.splitlines()):
            code = strip_comments(line).strip()
            fm = re.match(
                r"(?P<type>[A-Za-z_][\w:]*(?:\s*<[^>]*>)?)\s+"
                r"(?P<name>[A-Za-z_]\w*)(?:\s*\[[^\]]*\])?\s*(?:=[^;]*)?;",
                code)
            if not fm:
                continue
            t = fm.group("type")
            if t in ("struct", "enum", "using", "static", "constexpr", "return"):
                continue
            if not WIRE_TYPE_OK.match(t):
                finding(path, lineno + off, "wire-struct",
                        f"{struct}.{fm.group('name')} has non-fixed-width "
                        f"type `{t}`; wire layouts must not depend on the "
                        "host ABI")
        if not re.search(
                r"static_assert\(\s*std::is_trivially_copyable_v<\s*" +
                struct + r"\s*>", text):
            finding(path, lineno, "wire-struct",
                    f"missing static_assert(std::is_trivially_copyable_v<"
                    f"{struct}>) — wire structs are moved with byte copies")


def check_naked_memcpy(path: Path, rel: str, lines: list[str]) -> None:
    if rel.startswith("src/ib/"):
        return
    banned = rel in MEMCPY_BANNED_FILES
    for i, line in enumerate(lines, 1):
        code = strip_comments(line)
        if banned and re.search(r"\bmemcpy\s*\(", code):
            finding(path, i, "naked-memcpy",
                    "raw memcpy in the eager-ring engine; use the "
                    "bounds-checked mpi/wire.hpp helpers")
        elif rel.startswith("src/mpi/") and MEMCPY_MR_DESTS.search(code):
            finding(path, i, "naked-memcpy",
                    "memcpy directly into a registered MR buffer; use "
                    "mpi/wire.hpp so DcfaCheck sees the copy bounds")


def check_rma_epoch(path: Path, rel: str, lines: list[str]) -> None:
    if not rel.startswith("src/mpi/") or rel in RMA_EPOCH_ALLOWED:
        return
    for i, line in enumerate(lines, 1):
        if WORK_REQUEST.search(strip_comments(line)):
            finding(path, i, "rma-epoch",
                    "raw work request outside engine/rma/protocol; "
                    "this bypasses the window epoch hooks and the checker's "
                    "remote-access ledger — go through Engine::rma_post (or "
                    "add a justified waiver)")


def check_context_switch(path: Path, rel: str, lines: list[str]) -> None:
    in_src = rel.startswith("src/")
    for i, line in enumerate(lines, 1):
        code = strip_comments(line)
        if in_src and (UCONTEXT_API.search(code) or
                       UCONTEXT_HEADER.search(line.split("//", 1)[0])):
            finding(path, i, "raw-context-switch",
                    "ucontext API in src/: the library switches contexts "
                    "only through dcfa_fiber_switch in src/sim/fiber.cpp")
        elif rel not in FIBER_SWITCH_ALLOWED and FIBER_SWITCH.search(code):
            finding(path, i, "raw-context-switch",
                    "fiber switch outside src/sim/fiber.cpp: a context "
                    "switch that does not flow through Engine::schedule_at "
                    "is an interleaving decision the explore scheduler can "
                    "neither permute nor replay")


def check_os_thread(path: Path, rel: str, lines: list[str]) -> None:
    if not rel.startswith("src/"):
        return
    for i, line in enumerate(lines, 1):
        if OS_THREAD.search(strip_comments(line)):
            finding(path, i, "sim-os-thread",
                    "std::thread/std::condition_variable in src/: simulated "
                    "ranks run as fibers on the engine's thread, and an OS "
                    "thread here is a second execution backend outside the "
                    "engine's event order")


def matching(text: str, pos: int, open_: str, close: str) -> int:
    """Index just past the `close` that balances the `open_` before pos."""
    depth = 1
    while pos < len(text) and depth:
        depth += {open_: 1, close: -1}.get(text[pos], 0)
        pos += 1
    return pos


def helper_line_ranges(text: str, names: tuple[str, ...]) -> list[range]:
    """1-based line ranges of the bodies of Engine::<name> definitions."""
    out: list[range] = []
    pat = re.compile(r"\bEngine::(?:" + "|".join(names) +
                     r")\s*\([^;{]*\)\s*(?:const\s*)?\{")
    for m in pat.finditer(text):
        pos = matching(text, m.end(), "{", "}")
        out.append(range(text.count("\n", 0, m.start()) + 1,
                         text.count("\n", 0, pos) + 2))
    return out


def check_endpoint_mr(path: Path, rel: str, text: str,
                      lines: list[str]) -> None:
    if not rel.startswith("src/mpi/"):
        return
    helpers = helper_line_ranges(text, ENDPOINT_MR_HELPERS)
    code = [strip_comments(line) for line in lines]
    for i, line in enumerate(code, 1):
        if not MR_CALL.search(line) or any(i in r for r in helpers):
            continue
        # The whole statement: back to the previous terminator, on to `;`.
        lo = i
        while lo > 1 and not code[lo - 2].rstrip().endswith((";", "{", "}")):
            lo -= 1
        hi = i
        while hi < len(code) and not code[hi - 1].rstrip().endswith(";"):
            hi += 1
        if ENDPOINT_REGION.search(" ".join(code[lo - 1:hi])):
            finding(path, i, "endpoint-mr",
                    "endpoint memory registered/deregistered outside "
                    "Engine::reg_endpoint/dereg_endpoint; go through the "
                    "lifecycle helpers so setup, rebuild and finalize agree")


def check_dma_resolve(path: Path, rel: str, lines: list[str]) -> None:
    if not rel.startswith("src/ib/"):
        return
    for i, line in enumerate(lines, 1):
        if DMA_RESOLVE.search(strip_comments(line)):
            finding(path, i, "dma-resolve",
                    "AddressSpace::resolve in the HCA model; move DMA bytes "
                    "through the registration's MemoryRegion::host view")


def check_telemetry(path: Path, rel: str, lines: list[str]) -> None:
    if not rel.startswith("src/"):
        return
    code = [strip_comments(line) for line in lines]
    for i, line in enumerate(code, 1):
        if TELEMETRY_GLOBAL.search(line):
            finding(path, i, "telemetry",
                    "process-global tracer/logger; record through the "
                    "cluster's sim::Engine::telemetry()")
    # Argument lists may span lines: scan the joined text, map back.
    text = "\n".join(code)
    for m in TELEMETRY_CALL.finditer(text):
        pos = matching(text, m.end(), "(", ")")
        if STRING_BUILD.search(text, m.end(), pos):
            finding(path, text.count("\n", 0, m.start()) + 1, "telemetry",
                    "string built in a telemetry call's arguments; pass a "
                    "format literal and its fields instead")


def check_getenv(path: Path, rel: str, lines: list[str]) -> None:
    if not rel.startswith("src/") or rel in GETENV_ALLOWED:
        return
    for i, line in enumerate(lines, 1):
        if GETENV.search(strip_comments(line)):
            finding(path, i, "getenv",
                    "environment read outside src/sim/{fiber,check,trace}"
                    ".cpp; make the value a sim::Platform field")


def check_catch_switch(path: Path, rel: str, lines: list[str]) -> None:
    if not rel.startswith("src/"):
        return
    text = "\n".join(strip_comments(line) for line in lines)
    hit: set[int] = set()  # a wait inside nested handlers reports once
    for m in CATCH.finditer(text):
        body = text.find("{", matching(text, m.end(), "(", ")"))
        if body < 0:
            continue
        end = matching(text, body + 1, "{", "}")
        for w in BLOCKING_CALL.finditer(text, body, end):
            lineno = text.count("\n", 0, w.start()) + 1
            if lineno not in hit:
                hit.add(lineno)
                finding(path, lineno, "catch-switch",
                        "blocking call inside a catch handler; the fiber "
                        "switch does not carry the caught-exception stack "
                        "— record the error and block after the handler")


def check_signaled_post(path: Path, rel: str, text: str,
                        lines: list[str]) -> None:
    if not rel.startswith("src/mpi/"):
        return
    helpers = helper_line_ranges(text, SIGNALED_POST_HELPERS)
    for i, line in enumerate(lines, 1):
        if (OUTSTANDING_WRITE.search(strip_comments(line))
                and not any(i in r for r in helpers)):
            finding(path, i, "signaled-post",
                    "CQE callback registered outside Engine::post_signaled; "
                    "post signaled work requests through the helper")


def check_offload_stage(path: Path, rel: str, text: str,
                        lines: list[str]) -> None:
    if not rel.startswith("src/mpi/"):
        return
    helpers = helper_line_ranges(text, OFFLOAD_STAGE_HELPERS)
    for i, line in enumerate(lines, 1):
        if (OFFLOAD_STAGE.search(strip_comments(line))
                and not any(i in r for r in helpers)):
            finding(path, i, "offload-stage",
                    "offloading send buffer decided outside "
                    "Engine::stage_offload; ask the helper so every sender "
                    "shares its eligibility rule and CmdError fallback")


def check_bootstrap_handshake(path: Path, rel: str, text: str,
                              lines: list[str]) -> None:
    if not rel.startswith("src/mpi/"):
        return
    helpers = helper_line_ranges(text, HANDSHAKE_HELPERS)
    for i, line in enumerate(lines, 1):
        if (HANDSHAKE_CALL.search(strip_comments(line))
                and not any(i in r for r in helpers)):
            finding(path, i, "bootstrap-handshake",
                    "connection board used outside the handshake functions; "
                    "wire pairs through open_endpoint/await_peer/"
                    "service_requests or the reconnect path")


def check_one_wait(path: Path, rel: str, text: str,
                   lines: list[str]) -> None:
    if not rel.startswith("src/mpi/"):
        return
    helpers = helper_line_ranges(text, ONE_WAIT_HELPERS)
    code = "\n".join(strip_comments(line) for line in lines)
    loops: set[int] = set()  # a loop's clear and wait report once
    for m in ONE_WAIT.finditer(code):
        lineno = code.count("\n", 0, m.start()) + 1
        if any(lineno in r for r in helpers):
            continue
        opened: list[int] = []  # the innermost open brace names the loop
        for i, c in enumerate(code[:m.start()]):
            if c == "{":
                opened.append(i)
            elif c == "}" and opened:
                opened.pop()
        loop = opened[-1] if opened else -1
        if loop not in loops:
            loops.add(loop)
            finding(path, lineno, "one-wait",
                    "wait loop outside Engine::block_until; hand the wait "
                    "a pass instead of blocking on wake_ inline")


def check_one_ack(path: Path, rel: str, text: str,
                  lines: list[str]) -> None:
    if not rel.startswith("src/mpi/"):
        return
    helpers = helper_line_ranges(text, ONE_ACK_HELPERS)
    for i, line in enumerate(lines, 1):
        if (ONE_ACK.search(strip_comments(line))
                and not any(i in r for r in helpers)):
            finding(path, i, "one-ack",
                    "consumed_by_peer assigned outside Engine::apply_credit; "
                    "apply every credit through it so each one also acks "
                    "the packets it covers")


def run_clang_tidy(files: list[Path]) -> None:
    tidy = shutil.which("clang-tidy")
    compdb = ROOT / "build" / "compile_commands.json"
    if not tidy or not compdb.exists():
        missing = "clang-tidy" if not tidy else "build/compile_commands.json"
        print(f"dcfa_lint: note: {missing} not available; "
              "skipping clang-tidy pass (CI runs it)")
        return
    sources = [str(f) for f in files if f.suffix == ".cpp"
               and str(f.relative_to(ROOT)).startswith("src/")]
    r = subprocess.run([tidy, "-p", str(compdb.parent), "--quiet", *sources],
                       cwd=ROOT, capture_output=True, text=True)
    out = (r.stdout or "") + (r.stderr or "")
    for line in out.splitlines():
        if re.search(r"(warning|error):", line) and "clang-diagnostic" not in line:
            findings.append(line.strip())


def main() -> int:
    prune = "--prune" in sys.argv
    files: list[Path] = []
    for d in SCAN_DIRS:
        for suf in CPP_SUFFIXES:
            files.extend(sorted((ROOT / d).rglob(f"*{suf}")))

    for path in files:
        text = path.read_text(encoding="utf-8", errors="replace")
        rel = str(path.relative_to(ROOT))
        lines = text.splitlines()
        waivers = file_waivers(text, path)
        file_findings.clear()
        check_raw_post(path, rel, lines)
        check_unchecked_result(path, rel, lines)
        check_wire_structs(path, rel, text)
        check_naked_memcpy(path, rel, lines)
        check_rma_epoch(path, rel, lines)
        check_context_switch(path, rel, lines)
        check_os_thread(path, rel, lines)
        check_endpoint_mr(path, rel, text, lines)
        check_dma_resolve(path, rel, lines)
        check_telemetry(path, rel, lines)
        check_getenv(path, rel, lines)
        check_catch_switch(path, rel, lines)
        check_signaled_post(path, rel, text, lines)
        check_offload_stage(path, rel, text, lines)
        check_bootstrap_handshake(path, rel, text, lines)
        check_one_wait(path, rel, text, lines)
        check_one_ack(path, rel, text, lines)

        rules_hit = {rule for (_, _, rule, _) in file_findings}
        for (p, ln, rule, msg) in file_findings:
            if rule not in waivers:
                emit(p, ln, rule, msg)
        stale = sorted((ln, rule) for rule, ln in waivers.items()
                       if rule not in rules_hit)
        if stale and prune:
            prune_stale_waivers(path, [ln for ln, _ in stale])
            for ln, rule in stale:
                print(f"dcfa_lint: pruned stale allow-file({rule}) "
                      f"waiver at {rel}:{ln}")
        else:
            for ln, rule in stale:
                emit(path, ln, "stale-waiver",
                     f"allow-file({rule}) waiver but the rule reports "
                     "nothing in this file; remove it (or run --prune)")

    if "--no-tidy" not in sys.argv:
        run_clang_tidy(files)

    for f in findings:
        print(f)
    n = len(findings)
    print(f"dcfa_lint: {n} finding(s) across {len(files)} files")
    return min(n, 125)


if __name__ == "__main__":
    sys.exit(main())
