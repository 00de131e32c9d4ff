(* The enforcement oracle's property: see oracle.ml. Set QCHECK_LONG=1
   for four times the cases, QCHECK_SEED=N to replay a run. *)

let () =
  (* Every run boots a fresh machine, whose large buffers go straight to
     the major heap; a lazier major GC halves the property's time. *)
  Gc.set { (Gc.get ()) with Gc.space_overhead = 400 };
  Alcotest.run "oracle"
    [ ("enforcement", [ QCheck_alcotest.to_alcotest Oracle.property ]) ]
