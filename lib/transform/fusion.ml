let is_identity_map (m : Affine.map) =
  Affine.equal_map m (Affine.identity_map m.Affine.n_dims)

(* Replace [Input target] in the consumer body with [replacement] and
   shift the consumer's other input indices per [shift]. *)
let rec graft ~target ~replacement ~shift (e : Linalg.scalar_expr) =
  match e with
  | Linalg.Input i -> if i = target then replacement else Linalg.Input (shift i)
  | Linalg.Output | Linalg.Const _ -> e
  | Linalg.Binop (b, x, y) ->
      Linalg.Binop
        (b, graft ~target ~replacement ~shift x, graft ~target ~replacement ~shift y)
  | Linalg.Unop (u, x) -> Linalg.Unop (u, graft ~target ~replacement ~shift x)

let rec uses_output (e : Linalg.scalar_expr) =
  match e with
  | Linalg.Output -> true
  | Linalg.Input _ | Linalg.Const _ -> false
  | Linalg.Binop (_, x, y) -> uses_output x || uses_output y
  | Linalg.Unop (_, x) -> uses_output x

let fuse ~(producer : Linalg.t) ~(consumer : Linalg.t) ~consumer_input =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  if consumer_input < 0 || consumer_input >= Array.length consumer.Linalg.inputs
  then err "fuse: consumer input %d out of range" consumer_input
  else if
    Array.exists
      (fun k -> k = Linalg.Reduction_iter)
      producer.Linalg.iter_kinds
  then err "fuse: producer must be elementwise (no reduction dims)"
  else if uses_output producer.Linalg.body || producer.Linalg.init <> None then
    err "fuse: producer must not accumulate into its output"
  else if not (is_identity_map producer.Linalg.output.Linalg.map) then
    err "fuse: producer output map must be the identity"
  else begin
    let slot = consumer.Linalg.inputs.(consumer_input) in
    if slot.Linalg.shape <> producer.Linalg.output.Linalg.shape then
      err "fuse: consumer input shape %s does not match producer output"
        (String.concat "x"
           (Array.to_list (Array.map string_of_int slot.Linalg.shape)))
    else begin
      (* Consumer point q reads the producer at point slot.map(q); each
         producer operand map composes through it. *)
      let through = slot.Linalg.map.Affine.exprs in
      let rebased_inputs =
        Array.map
          (fun (o : Linalg.operand) ->
            {
              Linalg.name = "p_" ^ o.Linalg.name;
              shape = Array.copy o.Linalg.shape;
              map = Affine.substitute_map o.Linalg.map through;
            })
          producer.Linalg.inputs
      in
      let kept_before = Array.sub consumer.Linalg.inputs 0 consumer_input in
      let kept_after =
        Array.sub consumer.Linalg.inputs (consumer_input + 1)
          (Array.length consumer.Linalg.inputs - consumer_input - 1)
      in
      (* Producer inputs come first so that fusing into slot 0 keeps a
         chained value at input 0. *)
      let inputs = Array.concat [ rebased_inputs; kept_before; kept_after ] in
      let n_producer = Array.length rebased_inputs in
      (* Old consumer index -> new index among kept inputs. *)
      let shift i =
        n_producer + if i < consumer_input then i else i - 1
      in
      let body =
        graft ~target:consumer_input ~replacement:producer.Linalg.body ~shift
          consumer.Linalg.body
      in
      let fused =
        {
          consumer with
          Linalg.op_name =
            Printf.sprintf "%s_fused_%s" producer.Linalg.op_name
              consumer.Linalg.op_name;
          kind = Linalg.Generic_op;
          inputs;
          body;
        }
      in
      match Linalg.validate fused with
      | Ok () -> Ok fused
      | Error msg -> Error ("fuse: invalid fused op: " ^ msg)
    end
  end
