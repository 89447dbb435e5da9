(* Non-homogeneous networks — the closing remark of Section IV.

   The analysis does not need identical nodes: per-node capacities C^h,
   cross rates rho_c^h, and scheduling constants ∆_{0,h} may all differ;
   the delay bound is still a single-variable optimization.  This example
   models a campus-to-campus path: a slow FIFO access link, a fast core
   whose routers give the through traffic differentiated EDF service, and a
   congested peering point where the through traffic is effectively blindly
   multiplexed.

   Run with:  dune exec examples/heterogeneous.exe *)

module E2e = Deltanet.E2e
module Delta = Scheduler.Delta
module Ebb = Envelope.Ebb
module Mmpp = Envelope.Mmpp

let eb n s = n *. Mmpp.effective_bandwidth Mmpp.paper_source ~s

(* [quiet] drops node [quiet]'s cross load (the leave-one-out study). *)
let path ?(quiet = -1) ~s () =
  let node i capacity n_cross delta =
    let rho = if i = quiet then 0. else eb n_cross s in
    { E2e.capacity; cross = [| { E2e.rho; m = 1.; delta } |] }
  in
  E2e.v
    ~nodes:
      [|
        node 0 50. 120. (Delta.Fin 0.) (* access: 50 Mbps FIFO, moderate load *);
        node 1 400. 800. (Delta.Fin (-20.)) (* core: fast, EDF favours us *);
        node 2 400. 900. (Delta.Fin (-20.));
        node 3 100. 450. Delta.Pos_inf (* peering: congested, blind mux *);
        node 4 50. 100. (Delta.Fin 0.) (* remote access *);
      |]
    ~through:(Mmpp.ebb Mmpp.paper_source ~n:60. ~s)

let bound_over_s () =
  (* optimize over the shared effective-bandwidth parameter s by log grid *)
  let best = ref Float.infinity in
  let s = ref 1e-3 in
  for _ = 1 to 60 do
    let d = E2e.delay_bound ~epsilon:1e-9 (path ~s:!s ()) in
    if d < !best then best := d;
    s := !s *. 1.2
  done;
  !best

let () =
  let d = bound_over_s () in
  Fmt.pr "Heterogeneous 5-hop path (50M FIFO / 400M EDF / 400M EDF / 100M BMUX / 50M FIFO)@.";
  Fmt.pr "  end-to-end delay bound (eps=1e-9): %.2f ms@.@." d;
  (* Which node dominates?  Recompute with each node's cross load removed. *)
  Fmt.pr "  leave-one-out analysis (bound with node's cross traffic removed):@.";
  let base = path ~s:1. () in
  Array.iteri
    (fun i _ ->
      let best = ref Float.infinity in
      let s = ref 1e-3 in
      for _ = 1 to 60 do
        let d = E2e.delay_bound ~epsilon:1e-9 (path ~quiet:i ~s:!s ()) in
        if d < !best then best := d;
        s := !s *. 1.2
      done;
      Fmt.pr "    without node %d cross load: %.2f ms@." i !best)
    base.E2e.nodes;
  Fmt.pr
    "@.  The congested blind-multiplexing peering node dominates the bound:@.\
    \  upgrading its scheduler would pay more than adding core capacity.@."
