// Package lcasgd is a from-scratch Go reproduction of "Developing a Loss
// Prediction-based Asynchronous Stochastic Gradient Descent Algorithm for
// Distributed Training of Deep Neural Networks" (Li, He, Ren, Mao —
// ICPP 2020).
//
// The implementation lives under internal/ (see DESIGN.md for the system
// inventory); cmd/lcexp regenerates every figure and table of the paper's
// evaluation, and bench/ (its own module, declared by BENCHMARK.json) is
// the benchmark.
//
// # Training engine
//
// The training system in internal/ps is layered:
//
//   - Engine owns everything a run shares across algorithms: the worker
//     replica fleet and its data shards, the parameter server, the BN
//     statistics accumulator, the cost sampler, the learning-curve
//     recorder, and the discrete-event clock.
//   - Strategy is the algorithm: how worker iterations are scheduled on the
//     virtual clock and how their gradients become server updates. The five
//     paper algorithms (SGD, SSGD, ASGD, DC-ASGD, LC-ASGD), staleness-aware
//     SA-ASGD (Zhang et al. 2016) and decentralized AD-PSGD (Lian et al.
//     2018) are compact Strategy implementations; ps.RegisterStrategy
//     installs new ones, which then run through ps.Run like the built-ins.
//   - Backend executes worker-local compute. ps.BackendSequential runs it
//     inline on the event loop — the deterministic simulator the paper
//     harness requires. ps.BackendConcurrent fans forward/backward passes
//     and evaluation batches across goroutines while the event loop keeps
//     committing server updates in simulated-clock order, so its results
//     are bit-identical to the sequential backend while wall-clock time
//     drops on multi-core (cmd/lcexp -parallel).
//
// On top of the stationary cluster model, internal/scenario defines
// deterministic timelines of cluster events — congestion phase shifts,
// worker crashes and recoveries, elastic fleet resizes, network
// partitions — which the engine replays on the simulated clock (cmd/lcexp
// -scenario); the robustness experiment (-exp robust) compares every
// distributed algorithm across every canned scenario.
//
// # Run persistence
//
// internal/snapshot plus the engine's checkpoint barriers
// (ps.Config.CheckpointEvery) freeze a live run at quiescent eval
// boundaries and restore it float-bit-identically: a run is the same run
// whether it executes in one process or across any number of
// checkpoint/resume cycles, on either backend. The on-disk experiment
// store (cmd/lcexp -ckpt-dir -resume) makes killed sweeps continue
// without redoing completed runs. See DESIGN.md "Persistence & resume".
//
// ROADMAP.md's Architecture section documents the invariants behind the
// bit-identical guarantee and the recipe for adding more algorithms.
package lcasgd
