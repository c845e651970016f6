(** Prometheus text exposition (format 0.0.4) for a {!Registry}.

    Histogram families are recognised from the counter naming convention
    ({!Histogram} registers [<base>.le_<bound>], [<base>.le_inf],
    [<base>.count], [<base>.sum]) and exposed as a proper [histogram]
    type with cumulative [_bucket{le="..."}] series plus [_sum] and
    [_count].  All other counters are exposed as untyped samples (many
    of ours are set-style gauges).  Names are sanitized to the
    Prometheus charset ([.] → [_]). *)

val sanitize : string -> string
(** Map a registry counter name to a valid Prometheus metric name. *)

val expose : ?registry:Registry.t -> unit -> string
(** Full exposition text for [registry] (default {!Registry.global}).
    Exposing the global registry first sets its [gc.minor_collections],
    [gc.major_collections], [gc.minor_words] and [gc.top_heap_words]
    from [Gc.quick_stat], so every scrape of the process (the server's
    METRICS reply, [hfadctl metrics]) carries the collector's counters
    from this one place. *)

val pp : Format.formatter -> Registry.t -> unit

val parse_text : string -> (string * int) list
(** Parse exposition text back into [(series, value)] samples, where
    [series] includes any [{le="..."}] labels verbatim.  Comments and
    blank lines are skipped.  Used by the round-trip property tests. *)
