(** Machine descriptions for the performance model.

    The default models the paper's testbed: a dual-socket 14-core Intel
    Xeon E5-2680 v4 (Broadwell, AVX2) at 2.4 GHz with 64 GB of RAM. *)

type cache = {
  size_bytes : int;
  line_bytes : int;
  assoc : int;  (** ways; used by the trace-driven simulator *)
  latency_cycles : float;  (** cost of a hit at this level *)
}

type t = {
  name : string;
  cores : int;
  freq_ghz : float;
  vector_lanes : int;  (** f32 SIMD lanes (8 for AVX2) *)
  scalar_flops_per_cycle : float;  (** superscalar scalar FP throughput *)
  vector_flops_per_cycle : float;  (** peak vector FP throughput per core *)
  fma_latency_cycles : float;  (** loop-carried reduction chain cost *)
  load_ports : int;
  l1 : cache;
  l2 : cache;
  l3 : cache;  (** shared; [latency_cycles] is the average access cost *)
  mem_latency_cycles : float;
  single_core_bw_gbs : float;  (** streaming bandwidth one core can use *)
  total_bw_gbs : float;  (** machine-wide streaming bandwidth *)
  parallel_launch_cycles : float;  (** fork/join cost per parallel region *)
  parallel_efficiency : float;  (** fraction of linear scaling achieved *)
  elem_bytes : int;  (** f32 *)
}

val e5_2680_v4 : t
(** The paper's machine: 2 sockets x 14 cores. *)

val avx512_server : t
(** A wider modern server (36 cores, 16 f32 lanes, large L3) — used by
    the schedule-portability ablation. *)

val mobile_quad : t
(** A small 4-core mobile-class CPU with 128-bit SIMD and small caches. *)
