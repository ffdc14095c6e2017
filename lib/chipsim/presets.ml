let mib n = n * 1024 * 1024
let kib n = n * 1024

(* Cache-capacity scaling with per-cache floors expressed in *lines*, so
   that L2 and L3 keep a sane hierarchy at any scale: a flat byte floor
   would bottom L2 out at the same size as a scaled-down L3 and silently
   invert the capacity ratio the policies reason about. *)
let l2_min_lines = 16
let l3_min_lines = 64

let scale_topology topo ~scale =
  if scale <= 0 then invalid_arg "Presets.scale_topology: scale must be positive";
  if scale = 1 then topo
  else begin
    let line = topo.Topology.line_bytes in
    let l2 = max (topo.Topology.l2_bytes_per_core / scale) (l2_min_lines * line) in
    let l3 = max (topo.Topology.l3_bytes_per_chiplet / scale) (l3_min_lines * line) in
    if l2 >= l3 then
      invalid_arg
        (Printf.sprintf
           "Presets.scale_topology: scale %d inverts the cache hierarchy \
            (L2 %dB >= L3 %dB)"
           scale l2 l3);
    Topology.v ~chiplet_group_size:topo.Topology.chiplet_group_size
      ~l3_bytes_per_chiplet:l3 ~l2_bytes_per_core:l2 ~line_bytes:line
      ~mem_channels_per_socket:topo.Topology.mem_channels_per_socket
      ~mem_bw_bytes_per_ns_per_channel:
        topo.Topology.mem_bw_bytes_per_ns_per_channel
      ~chiplet_kinds:topo.Topology.chiplet_kinds
      ~kind_specs:topo.Topology.kind_specs ~links:topo.Topology.links
      ~sockets:topo.Topology.sockets
      ~chiplets_per_socket:topo.Topology.chiplets_per_socket
      ~cores_per_chiplet:topo.Topology.cores_per_chiplet ()
  end

let amd_milan ?(scale = 1) () =
  let base =
    Topology.v ~sockets:2 ~chiplets_per_socket:8 ~cores_per_chiplet:8
      ~chiplet_group_size:2 ~l3_bytes_per_chiplet:(mib 32)
      ~l2_bytes_per_core:(kib 512) ~mem_channels_per_socket:8
      ~mem_bw_bytes_per_ns_per_channel:4.8 ()
  in
  scale_topology base ~scale

let amd_milan_1s ?(scale = 1) () =
  let base =
    Topology.v ~sockets:1 ~chiplets_per_socket:8 ~cores_per_chiplet:8
      ~chiplet_group_size:2 ~l3_bytes_per_chiplet:(mib 32)
      ~l2_bytes_per_core:(kib 512) ~mem_channels_per_socket:8
      ~mem_bw_bytes_per_ns_per_channel:4.8 ()
  in
  scale_topology base ~scale

let intel_spr ?(scale = 1) () =
  (* 48 cores/socket as 4 tiles x 12 cores; 105 MB shared L3 modelled as
     ~26 MB slices with a faster tile-to-tile interconnect. *)
  let base =
    Topology.v ~sockets:2 ~chiplets_per_socket:4 ~cores_per_chiplet:12
      ~chiplet_group_size:2 ~l3_bytes_per_chiplet:(mib 26)
      ~l2_bytes_per_core:(mib 2) ~mem_channels_per_socket:8
      ~mem_bw_bytes_per_ns_per_channel:4.8 ()
  in
  scale_topology base ~scale

let intel_profile =
  {
    Latency.default_profile with
    Latency.same_chiplet_ns = 32.0;
    same_group_ns = 60.0;
    same_socket_ns = 75.0;
    cross_socket_ns = 240.0;
  }
