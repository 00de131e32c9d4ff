(* The §6.5 story as a runnable example: a backdoored ssh-decorator
   clone steals the credentials it is given — unless its invocation is
   enclosed. The two mitigations from the paper keep the package useful
   while containing it.

   Run with: dune exec examples/malicious_package.exe *)

module Legacy = Encl_attack.Legacy
module Lb = Encl_litterbox.Litterbox

let show mitigation =
  let backend =
    match mitigation with Legacy.Unprotected -> None | _ -> Some Lb.Mpk
  in
  let o = Legacy.run ~backend Legacy.Ssh_decorator mitigation in
  Format.printf "%-22s legit=%-5b contained=%-5b exfiltrated=%dB@."
    (Legacy.mitigation_name mitigation)
    o.Legacy.legit_ok o.Legacy.attack_blocked o.Legacy.exfiltrated

let () =
  Format.printf "== ssh-decorator: a backdoored public package ==@.@.";
  Format.printf
    "The package SSHes to your server and runs commands — and POSTs your@.\
     credentials to an attacker (the 2019 PyPI incident).@.@.";
  List.iter show Legacy.all_mitigations;
  Format.printf
    "@.- unprotected:        the backdoor wins@.\
     - default-policy:     contained, but the legitimate SSH use breaks too@.\
     - preallocated-socket: pass an open socket + key in; filter = io only@.\
     - connect-list:       allow net, but connect() only to the real host@."
