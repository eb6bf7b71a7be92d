type t = {
  sccp : bool;
  addr_cmp : Dce_opt.Sccp.addr_cmp;
  gva : Dce_opt.Gva.mode;
  memcp : bool;
  memcp_edge_aware : bool;
  uniform_arrays : bool;
  call_summaries : bool;
  gvn_cse : bool;
  gvn_forward : bool;
  alias : Dce_opt.Alias.precision;
  dse_strength : int;
  ipa_cp : bool;
  inline_threshold : int;
  function_dce : bool;
  function_dce_early : bool;
  unroll_trip : int;
  unswitch : bool;
  vectorize : bool;
  peephole_level : int;
  vrp : bool;
  vrp_shift_rule : bool;
  vrp_mod_singleton : bool;
  vrp_block_limit : int;
  jump_thread : Dce_opt.Jump_thread.mode;
  opt_rounds : int;
}

let nothing =
  {
    sccp = false;
    addr_cmp = Dce_opt.Sccp.Cmp_none;
    gva = Dce_opt.Gva.Off;
    memcp = false;
    memcp_edge_aware = false;
    uniform_arrays = false;
    call_summaries = false;
    gvn_cse = false;
    gvn_forward = false;
    alias = Dce_opt.Alias.None_;
    dse_strength = 0;
    ipa_cp = false;
    inline_threshold = 0;
    function_dce = false;
    function_dce_early = false;
    unroll_trip = 0;
    unswitch = false;
    vectorize = false;
    peephole_level = 0;
    vrp = false;
    vrp_shift_rule = false;
    vrp_mod_singleton = false;
    vrp_block_limit = 512;
    jump_thread = Dce_opt.Jump_thread.Off;
    opt_rounds = 0;
  }

let describe t =
  let flags = Buffer.create 64 in
  let add name cond = if cond then Buffer.add_string flags (name ^ " ") in
  add "sccp" t.sccp;
  add
    (match t.gva with
     | Dce_opt.Gva.Off -> ""
     | Dce_opt.Gva.Flow_insensitive -> "gva:fi"
     | Dce_opt.Gva.Flow_sensitive_if_const -> "gva:fsc")
    (t.gva <> Dce_opt.Gva.Off);
  add "memcp" t.memcp;
  add "memcp:edge" t.memcp_edge_aware;
  add "uniform-arrays" t.uniform_arrays;
  add "summaries" t.call_summaries;
  add "cse" t.gvn_cse;
  add "forward" t.gvn_forward;
  add
    (match t.alias with
     | Dce_opt.Alias.None_ -> ""
     | Dce_opt.Alias.Basic -> "alias:basic"
     | Dce_opt.Alias.Full -> "alias:full")
    (t.alias <> Dce_opt.Alias.None_);
  add (Printf.sprintf "dse:%d" t.dse_strength) (t.dse_strength > 0);
  add "ipa-cp" t.ipa_cp;
  add (Printf.sprintf "inline:%d" t.inline_threshold) (t.inline_threshold > 0);
  add "fdce" t.function_dce;
  add "fdce-early" t.function_dce_early;
  add (Printf.sprintf "unroll:%d" t.unroll_trip) (t.unroll_trip > 0);
  add "unswitch" t.unswitch;
  add "vectorize" t.vectorize;
  add (Printf.sprintf "peephole:%d" t.peephole_level) (t.peephole_level > 0);
  add "vrp" t.vrp;
  add "vrp:shift" t.vrp_shift_rule;
  add "vrp:mod" t.vrp_mod_singleton;
  add
    (match t.jump_thread with
     | Dce_opt.Jump_thread.Off -> ""
     | Dce_opt.Jump_thread.Conservative -> "jt:old"
     | Dce_opt.Jump_thread.Aggressive -> "jt:new")
    (t.jump_thread <> Dce_opt.Jump_thread.Off);
  String.trim (Buffer.contents flags)
