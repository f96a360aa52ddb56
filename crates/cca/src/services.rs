//! The per-component `Services` handle — the component's window onto the
//! framework, mirroring `gov.cca.Services`.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::{CcaError, CcaResult};

/// A type-erased port value. By convention the erased concrete type is an
/// `Arc<dyn SomePortTrait>`, so consumers recover it with
/// [`Services::get_port::<Arc<dyn SomePortTrait>>`] — type-safe sharing of
/// a trait object across the framework boundary.
pub type ErasedPort = Arc<dyn Any + Send + Sync>;

/// Metadata + value for one registered port.
#[derive(Clone)]
pub struct PortRecord {
    /// Port instance name (unique per component and direction).
    pub name: String,
    /// SIDL interface name, e.g. `"lisi.SparseSolver"`.
    pub sidl_type: String,
    /// The port value (provides ports only).
    pub value: Option<ErasedPort>,
}

impl std::fmt::Debug for PortRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PortRecord")
            .field("name", &self.name)
            .field("sidl_type", &self.sidl_type)
            .field("has_value", &self.value.is_some())
            .finish()
    }
}

/// Inner mutable state, shared between the component and the framework.
#[derive(Debug, Default)]
pub(crate) struct ServicesState {
    pub provides: BTreeMap<String, PortRecord>,
    pub uses: BTreeMap<String, PortRecord>,
    /// Current connections of uses ports: name → provider's port.
    pub connections: BTreeMap<String, (String, ErasedPort)>,
}

/// The component's framework handle. Cloneable; clones share state (the
/// framework holds one, the component may keep another).
#[derive(Debug, Clone, Default)]
pub struct Services {
    pub(crate) state: Arc<RwLock<ServicesState>>,
    pub(crate) component_name: String,
}

/// A non-owning handle to a component's [`Services`].
///
/// A provides-port object often needs its own component's services (to
/// look up connected uses ports at call time). Holding a full `Services`
/// there would create a reference cycle — the services' state owns the
/// port value, which would own the services — leaking the component. A
/// `WeakServices` breaks the cycle: upgrade at use time, and get `None`
/// once the component is destroyed.
#[derive(Debug, Clone)]
pub struct WeakServices {
    state: std::sync::Weak<RwLock<ServicesState>>,
    component_name: String,
}

impl WeakServices {
    /// Recover the full handle while the component is alive.
    pub fn upgrade(&self) -> Option<Services> {
        self.state
            .upgrade()
            .map(|state| Services { state, component_name: self.component_name.clone() })
    }
}

impl Services {
    pub(crate) fn new(component_name: &str) -> Self {
        Services {
            state: Arc::new(RwLock::new(ServicesState::default())),
            component_name: component_name.to_string(),
        }
    }

    /// A non-owning handle, safe to store inside this component's own
    /// port objects (see [`WeakServices`]).
    pub fn downgrade(&self) -> WeakServices {
        WeakServices {
            state: Arc::downgrade(&self.state),
            component_name: self.component_name.clone(),
        }
    }

    /// The owning component's instance name.
    pub fn component_name(&self) -> &str {
        &self.component_name
    }

    /// Register a provides port. `port` should be an `Arc<dyn Trait>` for
    /// the Rust trait realizing `sidl_type`.
    pub fn add_provides_port<P: Any + Send + Sync>(
        &self,
        name: &str,
        sidl_type: &str,
        port: P,
    ) -> CcaResult<()> {
        let mut st = self.state.write();
        if st.provides.contains_key(name) {
            return Err(CcaError::Duplicate(format!(
                "provides port '{name}' on '{}'",
                self.component_name
            )));
        }
        st.provides.insert(
            name.to_string(),
            PortRecord {
                name: name.to_string(),
                sidl_type: sidl_type.to_string(),
                value: Some(Arc::new(port)),
            },
        );
        Ok(())
    }

    /// Declare a uses port of the given SIDL type.
    pub fn register_uses_port(&self, name: &str, sidl_type: &str) -> CcaResult<()> {
        let mut st = self.state.write();
        if st.uses.contains_key(name) {
            return Err(CcaError::Duplicate(format!(
                "uses port '{name}' on '{}'",
                self.component_name
            )));
        }
        st.uses.insert(
            name.to_string(),
            PortRecord { name: name.to_string(), sidl_type: sidl_type.to_string(), value: None },
        );
        Ok(())
    }

    /// Fetch the port currently connected to the named uses port,
    /// downcast to `P` (conventionally `Arc<dyn Trait>`). The CCA
    /// `getPort` — called at use time, so a rewired connection is picked
    /// up automatically.
    pub fn get_port<P: Any + Clone>(&self, name: &str) -> CcaResult<P> {
        probe::incr(probe::Counter::PortFetches);
        let st = self.state.read();
        if !st.uses.contains_key(name) {
            return Err(CcaError::NoSuchPort {
                component: self.component_name.clone(),
                port: name.to_string(),
                kind: "uses",
            });
        }
        let (_, erased) = st.connections.get(name).ok_or_else(|| CcaError::NotConnected {
            component: self.component_name.clone(),
            port: name.to_string(),
        })?;
        erased
            .downcast_ref::<P>()
            .cloned()
            .ok_or_else(|| CcaError::WrongPortType { port: name.to_string() })
    }

    /// Which provider is connected to a uses port, if any.
    pub fn connected_provider(&self, name: &str) -> Option<String> {
        self.state.read().connections.get(name).map(|(p, _)| p.clone())
    }

    /// List registered provides ports.
    pub fn provides_ports(&self) -> Vec<PortRecord> {
        self.state.read().provides.values().cloned().collect()
    }

    /// List registered uses ports.
    pub fn uses_ports(&self) -> Vec<PortRecord> {
        self.state.read().uses.values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    trait Greeter: Send + Sync {
        fn greet(&self) -> String;
    }
    struct Hello;
    impl Greeter for Hello {
        fn greet(&self) -> String {
            "hello".into()
        }
    }

    #[test]
    fn provides_and_uses_registration() {
        let s = Services::new("comp");
        let port: Arc<dyn Greeter> = Arc::new(Hello);
        s.add_provides_port("greet", "demo.Greeter", port).unwrap();
        s.register_uses_port("needs-greet", "demo.Greeter").unwrap();
        assert_eq!(s.provides_ports().len(), 1);
        assert_eq!(s.uses_ports().len(), 1);
        assert_eq!(s.provides_ports()[0].sidl_type, "demo.Greeter");
        // Duplicates rejected.
        let port2: Arc<dyn Greeter> = Arc::new(Hello);
        assert!(s.add_provides_port("greet", "demo.Greeter", port2).is_err());
        assert!(s.register_uses_port("needs-greet", "demo.Greeter").is_err());
    }

    #[test]
    fn get_port_errors_when_unknown_or_disconnected() {
        let s = Services::new("comp");
        assert!(matches!(s.get_port::<Arc<dyn Greeter>>("nope"), Err(CcaError::NoSuchPort { .. })));
        s.register_uses_port("g", "demo.Greeter").unwrap();
        assert!(matches!(s.get_port::<Arc<dyn Greeter>>("g"), Err(CcaError::NotConnected { .. })));
        assert_eq!(s.connected_provider("g"), None);
    }

    #[test]
    fn connected_port_round_trips_through_erasure() {
        let s = Services::new("user");
        s.register_uses_port("g", "demo.Greeter").unwrap();
        let value: Arc<dyn Greeter> = Arc::new(Hello);
        s.state.write().connections.insert("g".into(), ("provider".into(), Arc::new(value)));
        let got: Arc<dyn Greeter> = s.get_port("g").unwrap();
        assert_eq!(got.greet(), "hello");
        assert_eq!(s.connected_provider("g").as_deref(), Some("provider"));
        // Wrong type is caught.
        assert!(matches!(s.get_port::<Arc<String>>("g"), Err(CcaError::WrongPortType { .. })));
    }
}
