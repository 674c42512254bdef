(* Kept as an alias so code outside lib/ that names [Sn_server.Json]
   (the snbench harness) keeps building; everything inside lib/ uses
   [Sn_json.Json] directly. *)
include Sn_json.Json
