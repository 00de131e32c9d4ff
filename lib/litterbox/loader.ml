module Section = Encl_elf.Section
module Image = Encl_elf.Image
module Objfile = Encl_elf.Objfile

let check_overlaps sections =
  let rec check = function
    | [] | [ _ ] -> Ok ()
    | a :: (b :: _ as rest) ->
        if Section.overlaps a b then
          Error
            (Printf.sprintf "sections %s and %s overlap" a.Section.name
               b.Section.name)
        else check rest
  in
  check
    (List.sort (fun (a : Section.t) b -> compare a.Section.addr b.Section.addr) sections)

let load machine (image : Image.t) =
  match check_overlaps image.Image.sections with
  | Error e -> Error e
  | Ok () ->
      List.iter
        (fun (s : Section.t) ->
          Encl_kernel.Mm.map_at machine.Machine.mm ~addr:s.Section.addr
            ~len:(Section.pages s * Phys.page_size)
            ~perms:(Section.default_perms s.Section.kind))
        image.Image.sections;
      (* Initialised data: written straight to the physical frames (the
         loader runs before the program, so PTE permissions — e.g. rodata
         being read-only — do not apply to it). *)
      let pt = machine.Machine.trusted_pt in
      let phys = machine.Machine.phys in
      let write_raw addr data =
        let len = Bytes.length data in
        let rec copy addr off remaining =
          if remaining > 0 then begin
            let page_off = addr land (Phys.page_size - 1) in
            let chunk = min remaining (Phys.page_size - page_off) in
            match Pagetable.walk pt ~vpn:(addr asr Phys.page_shift) with
            | None -> invalid_arg "Loader: symbol outside mapped sections"
            | Some pte ->
                Phys.blit_of_bytes phys ~ppn:pte.Pte.ppn ~off:page_off data off chunk;
                copy (addr + chunk) (off + chunk) (remaining - chunk)
          end
        in
        copy addr 0 len
      in
      List.iter
        (fun (s : Image.placed_sym) ->
          match s.Image.ps_init with
          | Some data -> write_raw s.Image.ps_addr data
          | None -> ())
        image.Image.symbols;
      Ok ()
