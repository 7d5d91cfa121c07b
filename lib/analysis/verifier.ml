exception Violation of string

let enabled_flag =
  Atomic.make
    (match Sys.getenv_opt "MLIR_RL_VERIFY" with
    | Some ("1" | "true" | "yes") -> true
    | Some _ | None -> false)

let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* Lock-free on the check path; the registry reads them at render time. *)
let checks_ctr = Atomic.make 0
let violations_ctr = Atomic.make 0

let () =
  Util.Metrics.add_collector Util.Metrics.global (fun () ->
      [
        ("verify_checks_total", Atomic.get checks_ctr);
        ("verify_violations_total", Atomic.get violations_ctr);
      ])

let check ?expected_digest (nest : Loop_nest.t) =
  match Loop_nest.validate nest with
  | Error e -> Error ("validate: " ^ e)
  | Ok () -> (
      match Bounds.check nest with
      | Error e -> Error ("bounds: " ^ e)
      | Ok () -> (
          match expected_digest with
          | None -> Ok ()
          | Some d ->
              let fresh = Loop_nest.digest nest in
              if String.equal d fresh then Ok ()
              else
                Error
                  (Printf.sprintf
                     "digest drift: state carries %s, recomputed %s" d fresh)))

let run ?expected_digest nest =
  Atomic.incr checks_ctr;
  match check ?expected_digest nest with
  | Ok () -> ()
  | Error e ->
      Atomic.incr violations_ctr;
      raise
        (Violation
           (Printf.sprintf "schedule verifier: nest %s: %s"
              nest.Loop_nest.name e))
