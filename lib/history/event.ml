type op = Create | Update | Delete

let op_to_string = function Create -> "create" | Update -> "update" | Delete -> "delete"

let pp_op ppf op = Format.pp_print_string ppf (op_to_string op)

type 'v t = { rev : int; key : string; op : op; value : 'v option }

let make ~rev ~key ~op value = { rev; key; op; value }

let pp pp_value ppf e =
  match e.value with
  | Some v -> Format.fprintf ppf "@[@%d %a %s = %a@]" e.rev pp_op e.op e.key pp_value v
  | None -> Format.fprintf ppf "@[@%d %a %s@]" e.rev pp_op e.op e.key

let describe e = String.concat "" [ "@"; string_of_int e.rev; " "; op_to_string e.op; " "; e.key ]

let matches_prefix prefix e =
  match prefix with None -> true | Some p -> String.starts_with ~prefix:p e.key
