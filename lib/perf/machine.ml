type cache = {
  size_bytes : int;
  line_bytes : int;
  assoc : int;
  latency_cycles : float;
}

type t = {
  name : string;
  cores : int;
  freq_ghz : float;
  vector_lanes : int;
  scalar_flops_per_cycle : float;
  vector_flops_per_cycle : float;
  fma_latency_cycles : float;
  load_ports : int;
  l1 : cache;
  l2 : cache;
  l3 : cache;
  mem_latency_cycles : float;
  single_core_bw_gbs : float;
  total_bw_gbs : float;
  parallel_launch_cycles : float;
  parallel_efficiency : float;
  elem_bytes : int;
}

let e5_2680_v4 =
  {
    name = "Intel Xeon E5-2680 v4 (2 sockets x 14 cores)";
    cores = 28;
    freq_ghz = 2.4;
    vector_lanes = 8;
    scalar_flops_per_cycle = 2.0;
    (* 2 FMA ports x 8 f32 lanes x 2 flops *)
    vector_flops_per_cycle = 32.0;
    fma_latency_cycles = 5.0;
    load_ports = 2;
    l1 = { size_bytes = 32 * 1024; line_bytes = 64; assoc = 8; latency_cycles = 4.0 };
    l2 = { size_bytes = 256 * 1024; line_bytes = 64; assoc = 8; latency_cycles = 12.0 };
    l3 =
      {
        size_bytes = 35 * 1024 * 1024;
        line_bytes = 64;
        assoc = 20;
        latency_cycles = 42.0;
      };
    mem_latency_cycles = 180.0;
    single_core_bw_gbs = 12.0;
    total_bw_gbs = 60.0;
    parallel_launch_cycles = 12000.0;
    parallel_efficiency = 0.9;
    elem_bytes = 4;
  }

let avx512_server =
  {
    name = "36-core AVX-512 server";
    cores = 36;
    freq_ghz = 2.8;
    vector_lanes = 16;
    scalar_flops_per_cycle = 2.0;
    vector_flops_per_cycle = 64.0;
    fma_latency_cycles = 4.0;
    load_ports = 2;
    l1 = { size_bytes = 48 * 1024; line_bytes = 64; assoc = 12; latency_cycles = 5.0 };
    l2 = { size_bytes = 1024 * 1024; line_bytes = 64; assoc = 16; latency_cycles = 14.0 };
    l3 =
      {
        size_bytes = 54 * 1024 * 1024;
        line_bytes = 64;
        assoc = 12;
        latency_cycles = 50.0;
      };
    mem_latency_cycles = 220.0;
    single_core_bw_gbs = 18.0;
    total_bw_gbs = 140.0;
    parallel_launch_cycles = 15000.0;
    parallel_efficiency = 0.88;
    elem_bytes = 4;
  }

let mobile_quad =
  {
    name = "4-core mobile CPU (128-bit SIMD)";
    cores = 4;
    freq_ghz = 2.0;
    vector_lanes = 4;
    scalar_flops_per_cycle = 2.0;
    vector_flops_per_cycle = 16.0;
    fma_latency_cycles = 4.0;
    load_ports = 2;
    l1 = { size_bytes = 64 * 1024; line_bytes = 64; assoc = 4; latency_cycles = 3.0 };
    l2 = { size_bytes = 512 * 1024; line_bytes = 64; assoc = 8; latency_cycles = 12.0 };
    l3 =
      {
        size_bytes = 4 * 1024 * 1024;
        line_bytes = 64;
        assoc = 16;
        latency_cycles = 35.0;
      };
    mem_latency_cycles = 150.0;
    single_core_bw_gbs = 8.0;
    total_bw_gbs = 18.0;
    parallel_launch_cycles = 8000.0;
    parallel_efficiency = 0.92;
    elem_bytes = 4;
  }
