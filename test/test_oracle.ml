(* The enforcement oracle's property: see oracle.ml. Set QCHECK_LONG=1
   for four times the cases, QCHECK_SEED=N to replay a run. *)

let () =
  Alcotest.run "oracle"
    [ ("enforcement", [ QCheck_alcotest.to_alcotest Oracle.property ]) ]
