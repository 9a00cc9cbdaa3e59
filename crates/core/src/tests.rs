//! Cross-family tests of what every register instance installs: the base
//! registers an install creates (names, owners, order), and who may take
//! which handle. Also home of [`Loads`], the load-counting factory the
//! read-skipping tests of every module share.

use std::collections::BTreeMap;
use std::sync::Arc;

use byzreg_runtime::{
    custom_swmr, CellBackend, Env, LocalFactory, ProcessId, ReadPort, RegisterFactory, Roles,
    System, Value, WritePort,
};
use parking_lot::{Mutex, RwLock};

use crate::api::SignatureRegister;
use crate::authenticated::AuthenticatedRegister;
use crate::quorum::FabricPorts;
use crate::sticky::StickyRegister;
use crate::verifiable::VerifiableRegister;

/// A factory that records every `create` call as `name@owner`, in order.
#[derive(Default)]
struct Recording(Mutex<Vec<String>>);

impl RegisterFactory for Recording {
    fn create<T: Value>(
        &self,
        env: &Env,
        owner: ProcessId,
        name: String,
        init: T,
    ) -> (WritePort<T>, ReadPort<T>) {
        self.0.lock().push(format!("{name}@{owner}"));
        LocalFactory.create(env, owner, name, init)
    }
}

/// A factory of in-process registers that count their backend loads by
/// register name. A `ReadPort::read` or `WritePort::read` is one load; a
/// skipped read is none, whatever the gate does.
#[derive(Clone, Default)]
pub(crate) struct Loads(Arc<Mutex<BTreeMap<String, usize>>>);

struct Counted<T> {
    value: RwLock<T>,
    name: String,
    loads: Loads,
}

impl<T: Value> CellBackend<T> for Counted<T> {
    fn load(&self) -> T {
        *self.loads.0.lock().entry(self.name.clone()).or_insert(0) += 1;
        self.value.read().clone()
    }

    fn store(&self, v: T) {
        *self.value.write() = v;
    }

    fn rmw(&self, f: Box<dyn FnOnce(&mut T) + '_>) -> T {
        let mut value = self.value.write();
        f(&mut value);
        value.clone()
    }
}

impl Loads {
    /// The loads of the register named `name` so far.
    pub(crate) fn of(&self, name: &str) -> usize {
        self.0.lock().get(name).copied().unwrap_or(0)
    }

    /// The loads of every register so far, by name (registers never loaded
    /// are absent).
    pub(crate) fn all(&self) -> BTreeMap<String, usize> {
        self.0.lock().clone()
    }

    /// The loads since `before` (an earlier [`Loads::all`]), by name,
    /// leaving out registers with none.
    pub(crate) fn since(&self, before: &BTreeMap<String, usize>) -> BTreeMap<String, usize> {
        let mut loads = self.all();
        loads.retain(|name, n| {
            *n -= before.get(name).copied().unwrap_or(0);
            *n > 0
        });
        loads
    }
}

impl RegisterFactory for Loads {
    fn create<T: Value>(
        &self,
        env: &Env,
        owner: ProcessId,
        name: String,
        init: T,
    ) -> (WritePort<T>, ReadPort<T>) {
        let cell = Counted { value: RwLock::new(init), name: name.clone(), loads: self.clone() };
        custom_swmr(env.gate(), owner, name, Box::new(cell))
    }
}

/// The `create` calls of one `install_in_shard` of `R` with `p{writer}` as
/// the writer on an `n = 4` system, space-separated.
fn inventory<R: SignatureRegister<u32>>(writer: usize) -> String {
    let system = System::builder(4).build();
    let factory = Recording::default();
    let shard = system.new_help_shard();
    drop(R::install_in_shard(&system, 0, &factory, &shard, ProcessId::new(writer)));
    system.shutdown();
    factory.0.into_inner().join(" ")
}

/// Pins the exact ordered base-register inventory of every family at
/// `n = 4`: external tooling classifies cells by these names, and the
/// message-passing backend's seeded schedule depends on creation order.
/// Under `writer = p3` the roles map to processes `[p3, p1, p2, p4]`.
#[test]
fn installs_create_the_pinned_base_registers_in_order() {
    let fabric = "R[1,2]@p1 R[1,3]@p1 R[1,4]@p1 R[2,2]@p2 R[2,3]@p2 R[2,4]@p2 \
                  R[3,2]@p3 R[3,3]@p3 R[3,4]@p3 R[4,2]@p4 R[4,3]@p4 R[4,4]@p4 \
                  C[2]@p2 C[3]@p3 C[4]@p4";
    let fabric_p3 = "R[1,2]@p3 R[1,3]@p3 R[1,4]@p3 R[2,2]@p1 R[2,3]@p1 R[2,4]@p1 \
                     R[3,2]@p2 R[3,3]@p2 R[3,4]@p2 R[4,2]@p4 R[4,3]@p4 R[4,4]@p4 \
                     C[2]@p1 C[3]@p2 C[4]@p4";

    let got = inventory::<VerifiableRegister<u32>>(1);
    assert_eq!(got, format!("R*@p1 R[1]@p1 R[2]@p2 R[3]@p3 R[4]@p4 {fabric}"));
    let got = inventory::<VerifiableRegister<u32>>(3);
    assert_eq!(got, format!("R*@p3 R[1]@p3 R[2]@p1 R[3]@p2 R[4]@p4 {fabric_p3}"));

    let got = inventory::<AuthenticatedRegister<u32>>(1);
    assert_eq!(got, format!("R1@p1 R[2]@p2 R[3]@p3 R[4]@p4 {fabric}"));
    let got = inventory::<AuthenticatedRegister<u32>>(3);
    assert_eq!(got, format!("R1@p3 R[2]@p1 R[3]@p2 R[4]@p4 {fabric_p3}"));

    let sticky = "E[1]@p1 R[1]@p1 E[2]@p2 R[2]@p2 E[3]@p3 R[3]@p3 E[4]@p4 R[4]@p4";
    assert_eq!(inventory::<StickyRegister<u32>>(1), format!("{sticky} {fabric}"));
    assert_eq!(
        inventory::<StickyRegister<u32>>(3),
        format!("E[1]@p3 R[1]@p3 E[2]@p1 R[2]@p1 E[3]@p2 R[3]@p2 E[4]@p4 R[4]@p4 {fabric_p3}")
    );
}

/// Name and owner of each of a list of ports.
type Labels = Vec<(String, ProcessId)>;

fn label<T: Value>(port: &WritePort<T>) -> (String, ProcessId) {
    (port.name().to_owned(), port.owner())
}

fn fabric_labels<W: Value>(ports: &FabricPorts<W>) -> Labels {
    ports.replies.iter().map(label).chain(ports.asker.iter().map(label)).collect()
}

/// One family's handle surface, as [`handle_rules`] drives it.
trait Handles: SignatureRegister<u32> {
    /// Installs with `writer` in the writer role.
    fn install(system: &System, writer: ProcessId) -> Self {
        Self::install_in_shard(system, 0, &LocalFactory, &system.new_help_shard(), writer)
    }
    fn take_writer(&self) {
        drop(self.signer());
    }
    fn take_reader(&self, pid: ProcessId) {
        drop(self.verifier(pid));
    }
    /// `attack_ports(pid)`: the family's own write ports, then the fabric's.
    fn attack(&self, pid: ProcessId) -> (Labels, Labels);
    /// The names of the family's own write ports of `role`.
    fn own(role: usize) -> Vec<String>;
}

impl Handles for VerifiableRegister<u32> {
    fn attack(&self, pid: ProcessId) -> (Labels, Labels) {
        let ports = self.attack_ports(pid);
        let own = ports.r_star.iter().map(label).chain([label(&ports.witness)]).collect();
        (own, fabric_labels(&ports.fabric))
    }
    fn own(role: usize) -> Vec<String> {
        let r_star = (role == 1).then(|| "R*".to_owned());
        r_star.into_iter().chain([format!("R[{role}]")]).collect()
    }
}

impl Handles for AuthenticatedRegister<u32> {
    fn attack(&self, pid: ProcessId) -> (Labels, Labels) {
        let ports = self.attack_ports(pid);
        let own = ports.r1.iter().map(label).chain(ports.witness.iter().map(label)).collect();
        (own, fabric_labels(&ports.fabric))
    }
    fn own(role: usize) -> Vec<String> {
        vec![if role == 1 { "R1".to_owned() } else { format!("R[{role}]") }]
    }
}

impl Handles for StickyRegister<u32> {
    fn attack(&self, pid: ProcessId) -> (Labels, Labels) {
        let ports = self.attack_ports(pid);
        (vec![label(&ports.echo), label(&ports.witness)], fabric_labels(&ports.fabric))
    }
    fn own(role: usize) -> Vec<String> {
        vec![format!("E[{role}]"), format!("R[{role}]")]
    }
}

/// The message `f` panics with.
fn panic_message(f: impl FnOnce()) -> String {
    let payload =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).expect_err("the take must panic");
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => payload.downcast_ref::<&str>().map(|s| (*s).to_owned()).unwrap_or_default(),
    }
}

/// The handle rules, under identity roles and with `p3` as the writer: one
/// writer handle, one handle per reader and none for the writer, no handle
/// for a declared-Byzantine process, and attack ports only for one — exactly
/// the ports its role owns, the asker counter iff it is a reader.
fn handle_rules<R: Handles>() {
    for writer in [ProcessId::new(1), ProcessId::new(3)] {
        let roles = Roles::with_writer(4, writer);
        let system = System::builder(4).build();
        let reg = R::install(&system, writer);
        let reader = roles.actual(2);
        reg.take_writer();
        assert!(panic_message(|| reg.take_writer()).contains("already taken"));
        assert!(panic_message(|| reg.take_reader(writer)).contains("is the writer"));
        reg.take_reader(reader);
        assert!(panic_message(|| reg.take_reader(reader)).contains("already taken"));
        let correct = roles.actual(3);
        assert!(panic_message(|| drop(reg.attack(correct))).contains("is correct"));
        system.shutdown();

        for role in 1..=4 {
            let pid = roles.actual(role);
            let system = System::builder(4).byzantine(pid).build();
            let reg = R::install(&system, writer);
            let take = || if role == 1 { reg.take_writer() } else { reg.take_reader(pid) };
            assert!(panic_message(take).contains("is Byzantine"));
            let (own, fabric) = reg.attack(pid);
            assert!(own.iter().chain(&fabric).all(|(_, owner)| *owner == pid), "{pid}");
            let names =
                |labels: Labels| labels.into_iter().map(|(name, _)| name).collect::<Vec<_>>();
            let asker = (role != 1).then(|| format!("C[{role}]"));
            let row = (2..=4).map(|k| format!("R[{role},{k}]")).chain(asker).collect::<Vec<_>>();
            assert_eq!(names(fabric), row);
            assert_eq!(names(own), R::own(role));
            assert!(panic_message(|| drop(reg.attack(pid))).contains("already taken"));
            system.shutdown();
        }
    }
}

#[test]
fn every_family_enforces_the_handle_rules() {
    handle_rules::<VerifiableRegister<u32>>();
    handle_rules::<AuthenticatedRegister<u32>>();
    handle_rules::<StickyRegister<u32>>();
}
