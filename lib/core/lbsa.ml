(** Umbrella module: the full public API of the "Life Beyond Set
    Agreement" reproduction, re-exported under one roof.

    Layering (bottom-up):
    - {!Codec}, {!Rio}: the byte codec and the I/O shim of everything
      persisted or sent;
    - {!Value}, {!Op}, {!Obj_spec}, {!Shistory}: sequential
      specifications of linearizable shared objects;
    - the object zoo: {!Register}, {!Consensus_obj}, {!Sa2}, {!Nk_sa},
      {!Pac}, {!Pac_nm}, {!O_n}, {!O_prime}, {!Classic};
    - {!Machine}, {!Config}, {!Scheduler}, {!Executor}, {!Trace}: the
      asynchronous shared-memory runtime;
    - {!Chistory}, {!Lin_checker}: linearizability;
    - {!Implementation}, {!Harness} and the paper's constructions
      {!Oprime_impl}, {!Pac_nm_impl}, {!Facets}, {!Snapshot_impl};
    - tasks and protocols: {!Dac}, {!Dac_from_pac}, {!Consensus_task},
      {!Consensus_protocols}, {!Kset_task}, {!Kset_protocols},
      {!Candidates};
    - the model checker: {!Cgraph}, {!Chunks}, {!Canon}, {!Valence},
      {!Bivalency}, {!Solvability}, {!Checkpoint}, {!Segstore},
      {!Config_codec};
    - the conformance fuzzer: {!Fuzz_case}, {!Fuzz_targets},
      {!Fuzz_engine}, {!Fuzz_mutant};
    - the hierarchy toolkit: {!Power}, {!Level}, {!Separation};
    - the verification service: {!Serve_api}, {!Serve_wire},
      {!Serve_store}, {!Serve_daemon}, {!Serve_client}. *)

module Prng = Lbsa_util.Prng
module Listx = Lbsa_util.Listx
module Rio = Lbsa_util.Rio
module Codec = Lbsa_util.Codec

module Value = Lbsa_spec.Value
module Op = Lbsa_spec.Op
module Obj_spec = Lbsa_spec.Obj_spec
module Shistory = Lbsa_spec.Shistory

module Register = Lbsa_objects.Register
module Consensus_obj = Lbsa_objects.Consensus_obj
module Sa2 = Lbsa_objects.Sa2
module Nk_sa = Lbsa_objects.Nk_sa
module Pac = Lbsa_objects.Pac
module Pac_nm = Lbsa_objects.Pac_nm
module O_n = Lbsa_objects.O_n
module O_prime = Lbsa_objects.O_prime
module Classic = Lbsa_objects.Classic
module Registry = Lbsa_objects.Registry

module Supervisor = Lbsa_runtime.Supervisor
module Machine = Lbsa_runtime.Machine
module Config = Lbsa_runtime.Config
module Scheduler = Lbsa_runtime.Scheduler
module Executor = Lbsa_runtime.Executor
module Trace = Lbsa_runtime.Trace
module Fault = Lbsa_runtime.Fault
module Substrate = Lbsa_runtime.Substrate

module Chistory = Lbsa_linearizability.Chistory
module Lin_checker = Lbsa_linearizability.Checker
module Lin_gen = Lbsa_linearizability.Gen

module Implementation = Lbsa_implement.Implementation
module Harness = Lbsa_implement.Harness
module Oprime_impl = Lbsa_implement.Oprime_impl
module Pac_nm_impl = Lbsa_implement.Pac_nm_impl
module Facets = Lbsa_implement.Facets
module Snapshot_impl = Lbsa_implement.Snapshot_impl
module Universal = Lbsa_implement.Universal

module Dac = Lbsa_protocols.Dac
module Dac_from_pac = Lbsa_protocols.Dac_from_pac
module Consensus_task = Lbsa_protocols.Consensus_task
module Consensus_protocols = Lbsa_protocols.Consensus_protocols
module Kset_task = Lbsa_protocols.Kset_task
module Kset_protocols = Lbsa_protocols.Kset_protocols
module Candidates = Lbsa_protocols.Candidates
module Safe_agreement = Lbsa_protocols.Safe_agreement
module Obstruction_free = Lbsa_protocols.Obstruction_free
module View_change = Lbsa_protocols.View_change

module Canon = Lbsa_modelcheck.Canon
module Cgraph = Lbsa_modelcheck.Graph
module Chunks = Lbsa_modelcheck.Chunks
module Checkpoint = Lbsa_modelcheck.Checkpoint
module Ctbl = Lbsa_modelcheck.Ctbl
module Config_codec = Lbsa_modelcheck.Config_codec
module Segstore = Lbsa_modelcheck.Segstore
module Valence = Lbsa_modelcheck.Valence
module Bivalency = Lbsa_modelcheck.Bivalency
module Solvability = Lbsa_modelcheck.Solvability
module Liveness = Lbsa_modelcheck.Liveness

module Fuzz_case = Lbsa_fuzz.Fuzz_case
module Fuzz_targets = Lbsa_fuzz.Targets
module Fuzz_engine = Lbsa_fuzz.Engine
module Fuzz_mutant = Lbsa_fuzz.Mutant
module Lasso = Lbsa_fuzz.Lasso

module Sim_protocol = Lbsa_bg.Sim_protocol
module Bg_simulation = Lbsa_bg.Bg_simulation

module Serve_api = Lbsa_serve.Api
module Serve_wire = Lbsa_serve.Wire
module Serve_store = Lbsa_serve.Store
module Serve_daemon = Lbsa_serve.Daemon
module Serve_client = Lbsa_serve.Client

module Power = Lbsa_hierarchy.Power
module Level = Lbsa_hierarchy.Level
module Separation = Lbsa_hierarchy.Separation
module Qadri = Lbsa_hierarchy.Qadri
