(** The shared executor: one entry point for ground-truth execution that
    picks its own backend.

    Every execution consumer (ground truth, differential checks, value
    instrumentation, reduction predicates, campaign stages) calls {!run}
    instead of naming an executor.  Two backends each win on one kind of
    program:

    - the tree-walking {!Dce_interp.Interp} has no set-up cost, so it wins
      on the short terminating programs a generator emits (Smith programs
      run a few hundred steps, at most ≈1.1k);
    - the bytecode VM ({!Bc_compile} then {!Bc_vm}) pays ≈2.4 ms to compile
      but runs a long program 4–9× faster, so it wins on long runs, such as a
      reduction candidate that loops until its fuel runs out.

    {!run} therefore starts on the interpreter with at most 4096 steps of
    fuel and, only when that leg runs out of fuel below the caller's fuel,
    reruns the program from the start on the VM with the caller's fuel.
    Both backends produce the same {!Dce_interp.Interp.result} — same step
    accounting, same default fuel — so the result is always the one
    [Interp.run ~fuel] would return.

    {b Guard polls.}  Both legs poll the ambient {!Dce_support.Guard} every
    256 steps, the interpreter at site ["interp"] and the VM at site
    ["vm"].  A run that finishes within 4096 steps polls exactly as under
    [Interp.run].  A handed-off run polls again from the VM's start, so the
    15 polls of the interpreter leg (one per 256 of its 4095 steps) count
    twice against a step budget.

    The interpreter stays the semantic oracle: the VM's compiler and
    allocator are extra machinery that could drift, so the differential
    soak ([test/suite_exec.ml]) holds the two backends to {!results_equal}. *)

val run : ?fuel:int -> ?max_depth:int -> Dce_ir.Ir.program -> Dce_interp.Interp.result
(** Execute [main]; same contract, defaults and result as
    {!Dce_interp.Interp.run} (fuel 2,000,000, call depth 256). *)

val results_equal : Dce_interp.Interp.result -> Dce_interp.Interp.result -> bool
(** Full value equality of results — outcome, events, marker and block
    sets, step count, final-global checksums.  Stronger than
    {!Dce_interp.Interp.equivalent}; this is the differential-soak bar. *)
