(** The multi-pass static analyzer behind [mdhc check].

    The directive rules MDH001–MDH015 live in one place,
    [Mdh_directive.Validate.elaborate], which returns every violation
    (structure, declarations, the body statement by statement, then shapes
    and output views). This module elaborates once and turns each of those
    errors into a diagnostic, resolving its site to a clause span; its first
    error-severity diagnostic is therefore [Validate.run]'s error. On a
    valid directive it then runs its own passes over the one elaboration
    and its [Md_hom]:

    + combine-operator verification ({!Opcheck}) — falsified declarations
      are errors (MDH020–MDH022), operators that raise on samples are
      warnings (MDH023), verified-but-undeclared properties are hints
      (MDH112);
    + semantic lints on the elaborated directive — unused inputs (MDH101),
      schedule pre-checks shared with [Mdh_lowering.Schedule]
      (MDH102/MDH103), degenerate extent-1 dimensions (MDH110), and
      stride/locality interchange hints (MDH111);
    + plan-level lints (MDH113) and verified-rewrite hints (MDH120/MDH121)
      on the default lowering.

    When the directive came from the pragma frontend, pass the parser's
    clause {!Mdh_pragma.Parser.spans} so diagnostics point at the offending
    clause. *)

val directive :
  ?spans:Mdh_pragma.Parser.spans ->
  ?verify_ops:bool ->
  Mdh_directive.Directive.t ->
  Diagnostic.t list
(** Analyze a directive. [verify_ops] (default [true]) controls the
    combine-operator property verification, which evaluates the operators'
    customising functions a few hundred times. Diagnostics come back in
    emission order; [Diagnostic.error_count] and friends summarise. *)

val pragma :
  ?name:string ->
  ?params:(string * int) list ->
  ?verify_ops:bool ->
  string ->
  Diagnostic.t list
(** Analyze pragma source text: lexical errors are reported as MDH017 and
    syntax errors as MDH016 (both carry the source span); otherwise the
    parsed directive is analyzed with clause spans attached. *)
