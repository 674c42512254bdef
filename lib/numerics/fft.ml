let is_power_of_two n = n > 0 && n land (n - 1) = 0

let next_power_of_two n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

(* The one transform: iterative in-place radix-2 Cooley-Tukey on split
   real/imaginary float arrays (unboxed, so the butterflies allocate
   nothing), with a bit-reversal permutation first.  The twiddles come
   from a per-call table holding exact cos/sin of 2 pi k / n, not from
   a running product, so their error does not grow with k.  The table
   is local to the call: no state outlives it.  No 1/n scaling. *)
let transform ~inverse re im =
  let n = Array.length re in
  if not (is_power_of_two n) then
    invalid_arg "Fft: length must be a power of two";
  let j = ref 0 in
  for i = 0 to n - 2 do
    if i < !j then begin
      let t = re.(i) in
      re.(i) <- re.(!j);
      re.(!j) <- t;
      let t = im.(i) in
      im.(i) <- im.(!j);
      im.(!j) <- t
    end;
    let m = ref (n lsr 1) in
    while !m >= 1 && !j land !m <> 0 do
      j := !j lxor !m;
      m := !m lsr 1
    done;
    j := !j lor !m
  done;
  let sign = if inverse then 1.0 else -1.0 in
  let half = n / 2 in
  let ang k = Units.two_pi *. float_of_int k /. float_of_int n in
  let tw_re = Array.init half (fun k -> cos (ang k)) in
  let tw_im = Array.init half (fun k -> sign *. sin (ang k)) in
  let len = ref 2 in
  while !len <= n do
    let h = !len / 2 and stride = n / !len in
    let i = ref 0 in
    while !i < n do
      for k = 0 to h - 1 do
        let a = !i + k in
        let b = a + h in
        let wr = tw_re.(k * stride) and wi = tw_im.(k * stride) in
        let br = re.(b) and bi = im.(b) in
        let vr = (br *. wr) -. (bi *. wi) and vi = (br *. wi) +. (bi *. wr) in
        let ar = re.(a) and ai = im.(a) in
        re.(a) <- ar +. vr;
        im.(a) <- ai +. vi;
        re.(b) <- ar -. vr;
        im.(b) <- ai -. vi
      done;
      i := !i + !len
    done;
    len := !len * 2
  done

let complex_transform ~inverse x =
  let n = Array.length x in
  let re = Array.init n (fun i -> x.(i).Complex.re) in
  let im = Array.init n (fun i -> x.(i).Complex.im) in
  transform ~inverse re im;
  let k = if inverse then 1.0 /. float_of_int n else 1.0 in
  Array.init n (fun i -> { Complex.re = re.(i) *. k; im = im.(i) *. k })

let fft x = complex_transform ~inverse:false x
let ifft x = complex_transform ~inverse:true x

let hann n =
  if n <= 1 then Array.make (max n 0) 1.0
  else
    Array.init n (fun i ->
        0.5 *. (1.0 -. cos (2.0 *. Units.pi *. float_of_int i /. float_of_int (n - 1))))

let coherent_gain w =
  let n = Array.length w in
  if n = 0 then 1.0
  else Array.fold_left ( +. ) 0.0 w /. float_of_int n

type spectrum = { frequencies : float array; amplitudes : float array }

let amplitude_spectrum ?(window = `Hann) ~fs samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Fft.amplitude_spectrum: empty input";
  if fs <= 0.0 then invalid_arg "Fft.amplitude_spectrum: fs must be > 0";
  let w, gain =
    match window with
    | `Rect -> (Array.make n 1.0, 1.0)
    | `Hann ->
      let w = hann n in
      (w, coherent_gain w)
  in
  let np = next_power_of_two n in
  let re = Array.make np 0.0 and im = Array.make np 0.0 in
  for i = 0 to n - 1 do
    re.(i) <- samples.(i) *. w.(i)
  done;
  transform ~inverse:false re im;
  let half = (np / 2) + 1 in
  let scale k =
    (* single-sided: double all bins except DC and Nyquist *)
    let base = 1.0 /. (float_of_int n *. gain) in
    if k = 0 || k = np / 2 then base else 2.0 *. base
  in
  {
    frequencies = Array.init half (fun k -> float_of_int k *. fs /. float_of_int np);
    amplitudes = Array.init half (fun k -> Float.hypot re.(k) im.(k) *. scale k);
  }

let peak_near s ~f ~span =
  let best = ref None in
  Array.iteri
    (fun k fk ->
      if Float.abs (fk -. f) <= span then
        match !best with
        | Some (_, a) when a >= s.amplitudes.(k) -> ()
        | _ -> best := Some (fk, s.amplitudes.(k)))
    s.frequencies;
  match !best with Some r -> r | None -> raise Not_found
