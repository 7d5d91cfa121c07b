(* The registry lives in [Util.Metrics]; this alias keeps the
   [Serve.Metrics] name for callers outside the library. *)
include Util.Metrics
