// Instruction-charge constants for the mining kernels.
//
// The functional engine counts *charged* instructions, so these constants
// pin down the arithmetic cost of each kernel's inner loop (memory
// operations charge themselves).  They are calibration inputs: first-order
// estimates of what nvcc 2.0 emitted for each loop shape, refined so the
// full model reproduces the paper's published curve levels (the reference
// points live in bench_support/paper_refs.cpp; bench/calibration_table
// prints the residuals, and `backend_shootout --fit-calibration` refits the
// KernelCostProfile view below at runtime — see src/calib/).
//
// Two asymmetries are deliberate and load-bearing:
//
//  * The unbuffered kernels (Algorithms 1 and 3) read the episode symbol
//    they are waiting for from device memory on every database symbol,
//    modelling the CC 1.x local-memory spill of an indexed episode array
//    (uncached, ~global latency).  The paper's flat, clock-scaled ~130-170ms
//    thread-level times (Figs. 8(a), 9(a-c)) are only consistent with an
//    uncovered per-symbol stall of this magnitude, and the same access in
//    the block-level kernels reproduces Algorithm 4's level-2 magnitudes
//    (Fig. 7(b)).
//
//  * The buffered thread-level kernel (Algorithm 2) keeps its episode in
//    registers (the loop is rewritten anyway to stage through shared
//    memory), giving the much lower issue-bound times of Fig. 9(d-f).
#pragma once

namespace gm::kernels {

/// Algorithm 1: loop control + texture coordinate math + FSM update per
/// database symbol (memory ops excluded).
inline constexpr int kUnbufferedScanInstr = 13;

/// Algorithm 2: tight shared-memory loop per buffered symbol.
inline constexpr int kBufferedScanInstr = 2;

/// Algorithms 3/4: loop control + chunk addressing per database symbol.
inline constexpr int kBlockScanInstr = 4;

/// Per automaton-state update in the block kernels' transfer-function scan
/// (one per entry state per symbol).
inline constexpr int kAutomatonStepInstr = 2;

/// Cooperative buffer-load loop: index math per copied element.
inline constexpr int kBufferCopyInstr = 2;

/// Fold step per (thread, entry-state) entry in the block kernels' reduce.
inline constexpr int kFoldStepInstr = 4;

/// Boundary-rescan loop body (expiry mode) per window symbol.
inline constexpr int kRescanInstr = 4;

// --- Algorithm 5 (block-bucketed single-scan) ------------------------------

/// Episode automata each thread owns (the frame/"register file" budget that
/// fixes a block's slot capacity at threads_per_block * this).  Eight keeps
/// the waiting-symbol set register-resident on CC 1.x-class hardware while
/// still amortizing one database read over many automata.
inline constexpr int kBucketEpisodesPerThread = 8;

/// Per scanned symbol per thread: loop control, deadline-heap peek and
/// bucket-head lookup.
inline constexpr int kBucketProbeInstr = 3;

/// Per drained bucket entry: list pop, generation-tag check, branch.
inline constexpr int kBucketDrainInstr = 3;

/// Per (re-)filing of an automaton into the bucket of its next awaited
/// symbol (including the initial filing under episode[0]).
inline constexpr int kBucketFileInstr = 2;

/// Per expiry-deadline min-heap push or pop.
inline constexpr int kExpiryHeapInstr = 4;

/// Trie mode: per drained shared-prefix token — the symbol-mask lookup and
/// the split that moves the members awaiting the symbol one symbol deeper.
/// Heavier than a flat drain (kBucketDrainInstr), but one token drain
/// advances every episode sharing the prefix.
inline constexpr int kTrieDrainInstr = 6;

/// Trie mode: per completed episode occurrence (count bump + membership
/// removal + idle-set return).
inline constexpr int kTrieAcceptInstr = 4;

/// Registers per thread declared to the occupancy calculator.
inline constexpr int kRegistersPerThread = 10;

/// Shared-memory staging buffer for the buffered kernels, in bytes.
/// 16 KB (the full shared memory) forces one resident block per
/// SM, matching the paper's observation that "only one block may be resident
/// on a multiprocessor during this [load]" (C2).
inline constexpr int kDefaultBufferBytes = 16384;

// --- Runtime-calibratable view ---------------------------------------------

/// The instruction-charge constants above, as a value type the analytic
/// workload models take per call.  Defaults are the shipped constexprs, so a
/// default-constructed profile predicts bit-identically to the pre-profile
/// code; `backend_shootout --fit-calibration` fits these fields (per term,
/// non-negative) from measured samples and `--calibration` feeds the fitted
/// values back in.
///
/// Only the *charge* constants are here.  The structural constants
/// (kBucketEpisodesPerThread, kRegistersPerThread, kDefaultBufferBytes) fix
/// launch geometry and occupancy, which the functional engine shares —
/// fitting them would desynchronize the model from what actually runs.
struct KernelCostProfile {
  double unbuffered_scan_instr = kUnbufferedScanInstr;
  double buffered_scan_instr = kBufferedScanInstr;
  double block_scan_instr = kBlockScanInstr;
  double automaton_step_instr = kAutomatonStepInstr;
  double buffer_copy_instr = kBufferCopyInstr;
  double fold_step_instr = kFoldStepInstr;
  double rescan_instr = kRescanInstr;
  double bucket_probe_instr = kBucketProbeInstr;
  double bucket_drain_instr = kBucketDrainInstr;
  double bucket_file_instr = kBucketFileInstr;
  double expiry_heap_instr = kExpiryHeapInstr;
  double trie_drain_instr = kTrieDrainInstr;
  double trie_accept_instr = kTrieAcceptInstr;
};

}  // namespace gm::kernels
