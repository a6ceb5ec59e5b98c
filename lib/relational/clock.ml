let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let now_ms () = Int64.to_float (Monotonic_clock.now ()) *. 1e-6
