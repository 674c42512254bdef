(* Counter deltas the traced run reports: worker-pool activity summed
   over the bench's calls, and snapshots of the library's process-wide
   counters at the phase boundaries. *)

let pool_tasks = ref 0
let pool_busy_s = ref 0.0
let pool_wall_s = ref 0.0

(* [Experiments.runtime] resets the shared pool's counters itself, so
   they are reset before and read after each call rather than once per
   phase. *)
let pool f =
  if not !Trace.armed then f ()
  else begin
    Snoise.Sweep.reset_stats ();
    Fun.protect f ~finally:(fun () ->
        let s = Snoise.Sweep.stats () in
        pool_tasks := !pool_tasks + s.Sn_engine.Pool.tasks_run;
        pool_busy_s := !pool_busy_s +. Sn_engine.Pool.cpu_seconds s;
        pool_wall_s := !pool_wall_s +. s.Sn_engine.Pool.wall_seconds)
  end

type snapshot = {
  tasks : int;
  busy_s : float;
  wall_s : float;
  cache : Sn_substrate.Cache.counters;
  factorizations : int;
  refactorizations : int;
  solves : int;
}

let snapshot () =
  {
    tasks = !pool_tasks;
    busy_s = !pool_busy_s;
    wall_s = !pool_wall_s;
    cache = Sn_substrate.Cache.counters ();
    factorizations = Sn_numerics.Splu.factorizations ();
    refactorizations = Sn_numerics.Splu.refactorizations ();
    solves = Sn_numerics.Splu.solves ();
  }

let at_start = ref (snapshot ())
let after_setup = ref !at_start
let after_timed = ref !at_start
let mark_start () = at_start := snapshot ()
let mark_setup () = after_setup := snapshot ()
let mark_timed () = after_timed := snapshot ()
