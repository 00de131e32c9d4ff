module Runtime = Encl_golike.Runtime
module K = Encl_kernel.Kernel
module Machine = Encl_litterbox.Machine
module Obs = Encl_obs.Obs

(* Backoff schedule: base * 2^(attempt-1), capped. *)
let base_backoff_ns = 1_000
let max_backoff_ns = 64_000

let retry_counter = Encl_obs.Metrics.counter "retry"

let transient = function K.Eintr | K.Eagain -> true | _ -> false

let backoff rt ~op ~attempt =
  let ns = min max_backoff_ns (base_backoff_ns * (1 lsl min 16 (attempt - 1))) in
  (* Consumed directly off the clock rather than via nanosleep(2): time
     syscalls are denied under net-only enclosure filters. *)
  Clock.consume (Runtime.clock rt) Clock.Other ns;
  let obs = (Runtime.machine rt).Machine.obs in
  Encl_obs.Metrics.incr (Obs.metrics obs) retry_counter;
  if Obs.enabled obs then
    Obs.span_mark obs
      ~name:(Printf.sprintf "retry:%s attempt=%d" op attempt)
      ~category:Encl_obs.Span.Syscall ()

let with_backoff ?(attempts = 5) rt ~op f =
  let rec go attempt =
    match f () with
    | Ok _ as ok -> ok
    | Error e when transient e && attempt < attempts ->
        backoff rt ~op ~attempt;
        go (attempt + 1)
    | Error _ as err -> err
  in
  go 1

let send_all ?(attempts = 5) rt ~op ~fd ~buf ~len =
  let rec go off attempt =
    if off >= len then Ok len
    else
      match
        Runtime.syscall_batched rt (K.Send { fd; buf = buf + off; len = len - off })
      with
      | Ok 0 -> Error K.Epipe
      | Ok n -> go (off + n) 1
      | Error e when transient e && attempt < attempts ->
          backoff rt ~op ~attempt;
          go off (attempt + 1)
      | Error _ as err -> err
  in
  go 0 1
