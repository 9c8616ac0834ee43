type config = (string * int) list

type t = {
  p_name : string;
  domain : config -> int list;
}

let independent name values = { p_name = name; domain = (fun _ -> values) }
let dependent name domain = { p_name = name; domain }

let value config name = List.assoc name config
