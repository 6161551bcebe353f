(* The key/value line format shared by campaign and serve replay files
   (see repro_file.mli). *)

let schedule_to_string sched =
  if Array.length sched = 0 then "-"
  else String.concat "," (Array.to_list (Array.map string_of_int sched))

let schedule_of_string = function
  | "-" | "" -> Ok [||]
  | s -> (
      try Ok (Array.of_list (List.map int_of_string (String.split_on_char ',' s)))
      with Failure _ -> Error (Printf.sprintf "bad schedule %S" s))

(* ---- writing ----------------------------------------------------------- *)

let one_line s = String.map (function '\n' | '\r' -> ' ' | c -> c) s

let pp ~magic ppf fields =
  Format.fprintf ppf "%s@." magic;
  List.iter (fun (k, v) -> Format.fprintf ppf "%s %s@." k (one_line v)) fields

let save pp path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let ppf = Format.formatter_of_out_channel oc in
      pp ppf v;
      Format.pp_print_flush ppf ())

(* ---- reading ----------------------------------------------------------- *)

type 'a field = {
  key : string;
  repeat : bool;
  set : 'a -> string -> ('a, string) result;
}

let field ?(repeat = false) key set = { key; repeat; set }
let text key set = field key (fun acc v -> Ok (set acc v))

let int key set =
  field key (fun acc v ->
      match int_of_string_opt v with
      | Some n -> Ok (set acc n)
      | None -> Error (Printf.sprintf "bad integer %S" v))

let float key set =
  field key (fun acc v ->
      match float_of_string_opt v with
      | Some x -> Ok (set acc x)
      | None -> Error (Printf.sprintf "bad number %S" v))

let split line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i -> (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))

let load ~what ~magic fields init path =
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error msg -> Error msg
  | [] -> Error (Printf.sprintf "empty %s file" what)
  | first :: _ when first <> magic ->
      Error (Printf.sprintf "not a %s file (expected %S)" what magic)
  | _ :: lines ->
      (* a key repeated in the file is corruption, not a harmless
         override: reject it rather than silently last-wins *)
      let rec go seen acc = function
        | [] -> Ok acc
        | line :: rest -> (
            let line = String.trim line in
            if line = "" then go seen acc rest
            else
              let key, value = split line in
              match List.find_opt (fun f -> f.key = key) fields with
              | None -> Error (Printf.sprintf "unknown field %S" key)
              | Some f when (not f.repeat) && List.mem key seen ->
                  Error (Printf.sprintf "duplicate field %S" key)
              | Some f -> (
                  match f.set acc value with
                  | Ok acc ->
                      go (if f.repeat then seen else key :: seen) acc rest
                  | Error _ as e -> e))
      in
      go [] init lines
