(* Sweep combinators: thin, order-preserving adapters from the
   experiment drivers onto the shared worker pool.  All the
   scheduling, stats and width policy live in Sn_engine.Pool; this
   module only chooses the pool and shapes the work. *)

module Pool = Sn_engine.Pool

let jobs () = Pool.jobs (Pool.default ())
let set_jobs n = Pool.set_default_jobs n
let stats () = Pool.stats (Pool.default ())
let reset_stats () = Pool.reset_stats (Pool.default ())

let resolve = function Some p -> p | None -> Pool.default ()

let map_points ?pool f points = Pool.map_list (resolve pool) f points
let map_array ?pool f points = Pool.map_array (resolve pool) f points

let grid ?pool f xs ys =
  let cells = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs in
  map_points ?pool (fun (x, y) -> (x, y, f x y)) cells

