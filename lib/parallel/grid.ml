let log_spaced ~lo ~ratio ~points =
  if points < 1 then invalid_arg "Parallel.Grid.log_spaced: points must be >= 1";
  let xs = Array.make points lo in
  (* repeated multiplication, not lo *. ratio ** k: the sequential scans
     this replaces accumulate rounding the same way *)
  for i = 1 to points - 1 do
    xs.(i) <- xs.(i - 1) *. ratio
  done;
  xs

let values ?work f xs = Default.map ?work f xs

let values_blocked ?work ~block f xs =
  if block < 1 then invalid_arg "Parallel.Grid.values_blocked: block must be >= 1";
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let nb = ((n + block) - 1) / block in
    if nb = 1 then f xs
    else begin
      let starts = Array.init nb (fun b -> b * block) in
      let parts =
        Default.map
          ?work:(Option.map (fun w -> w * block) work)
          (fun s -> f (Array.sub xs s (Int.min block (n - s))))
          starts
      in
      Array.concat (Array.to_list parts)
    end
  end

type scan = { ratio : float; xs : float array; values : float array; best : int }

let log_scan ~lo ~hi ~points eval =
  let ratio = (hi /. lo) ** (1. /. float_of_int (points - 1)) in
  let xs = log_spaced ~lo ~ratio ~points in
  let values = eval xs in
  if Array.length values <> points then
    invalid_arg "Parallel.Grid.log_scan: eval returned the wrong number of values";
  let best = ref 0 in
  for i = 1 to points - 1 do
    if values.(i) < values.(!best) then best := i
  done;
  { ratio; xs; values; best = !best }
