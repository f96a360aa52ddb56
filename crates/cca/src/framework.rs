//! The framework and its builder service: instantiate, connect,
//! disconnect, replace — the Ccaffeine operations the paper relies on for
//! run-time solver switching (Figure 4).

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::component::Component;
use crate::error::{CcaError, CcaResult};
use crate::services::Services;
use crate::sidl::SidlRegistry;

/// Opaque component instance handle.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(String);

impl ComponentId {
    /// The instance name.
    pub fn name(&self) -> &str {
        &self.0
    }
}

/// A builder-service event, recorded for diagnostics and asserted on by
/// tests (Ccaffeine's GUI shows exactly this stream).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuilderEvent {
    /// Component instantiated.
    Instantiated(String),
    /// Component destroyed.
    Destroyed(String),
    /// `user.uses_port` connected to `provider.provides_port`.
    Connected {
        /// Using instance.
        user: String,
        /// Uses-port name.
        uses_port: String,
        /// Providing instance.
        provider: String,
        /// Provides-port name.
        provides_port: String,
    },
    /// A connection removed.
    Disconnected {
        /// Using instance.
        user: String,
        /// Uses-port name.
        uses_port: String,
    },
}

struct Instance {
    component: Box<dyn Component>,
    services: Services,
}

/// One rank's framework. Under SPMD every rank builds an identical
/// framework; the instances with the same name across ranks form a
/// *cohort*.
#[derive(Default)]
pub struct Framework {
    instances: BTreeMap<String, Instance>,
    registry: Option<SidlRegistry>,
    events: Arc<RwLock<Vec<BuilderEvent>>>,
}

impl Framework {
    /// A framework without SIDL validation.
    pub fn new() -> Self {
        Framework::default()
    }

    /// A framework that validates every port type against a SIDL
    /// registry (Babel's conformance role).
    pub fn with_registry(registry: SidlRegistry) -> Self {
        Framework { registry: Some(registry), ..Default::default() }
    }

    /// Instantiate a component under `name`; calls its `set_services`.
    pub fn instantiate(
        &mut self,
        name: &str,
        mut component: Box<dyn Component>,
    ) -> CcaResult<ComponentId> {
        if self.instances.contains_key(name) {
            return Err(CcaError::Duplicate(format!("component instance '{name}'")));
        }
        let services = Services::new(name);
        component.set_services(&services)?;
        // Validate declared port types against the registry, if present.
        if let Some(reg) = &self.registry {
            for rec in services.provides_ports().iter().chain(services.uses_ports().iter()) {
                if !reg.has_interface(&rec.sidl_type) {
                    return Err(CcaError::UnknownSidlType(rec.sidl_type.clone()));
                }
            }
        }
        self.instances.insert(name.to_string(), Instance { component, services });
        self.events.write().push(BuilderEvent::Instantiated(name.to_string()));
        Ok(ComponentId(name.to_string()))
    }

    /// Destroy an instance (its connections into other components are
    /// severed).
    pub fn destroy(&mut self, id: &ComponentId) -> CcaResult<()> {
        self.instances
            .remove(id.name())
            .ok_or_else(|| CcaError::NoSuchComponent(id.name().to_string()))?;
        // Drop any connections that used this provider.
        for inst in self.instances.values_mut() {
            let mut st = inst.services.state.write();
            st.connections.retain(|_, (provider, _)| provider != id.name());
        }
        self.events.write().push(BuilderEvent::Destroyed(id.name().to_string()));
        Ok(())
    }

    fn instance(&self, id: &ComponentId) -> CcaResult<&Instance> {
        self.instances
            .get(id.name())
            .ok_or_else(|| CcaError::NoSuchComponent(id.name().to_string()))
    }

    /// Connect `user.uses_port` to `provider.provides_port`, with port
    /// type checking.
    pub fn connect(
        &mut self,
        user: &ComponentId,
        uses_port: &str,
        provider: &ComponentId,
        provides_port: &str,
    ) -> CcaResult<()> {
        let provider_inst = self.instance(provider)?;
        let provides_rec = {
            let st = provider_inst.services.state.read();
            st.provides.get(provides_port).cloned().ok_or_else(|| CcaError::NoSuchPort {
                component: provider.name().to_string(),
                port: provides_port.to_string(),
                kind: "provides",
            })?
        };
        let user_inst = self.instance(user)?;
        let mut st = user_inst.services.state.write();
        let uses_rec = st.uses.get(uses_port).cloned().ok_or_else(|| CcaError::NoSuchPort {
            component: user.name().to_string(),
            port: uses_port.to_string(),
            kind: "uses",
        })?;
        if uses_rec.sidl_type != provides_rec.sidl_type {
            return Err(CcaError::TypeMismatch {
                uses_type: uses_rec.sidl_type,
                provides_type: provides_rec.sidl_type,
            });
        }
        if st.connections.contains_key(uses_port) {
            return Err(CcaError::AlreadyConnected {
                component: user.name().to_string(),
                port: uses_port.to_string(),
            });
        }
        st.connections.insert(
            uses_port.to_string(),
            (
                provider.name().to_string(),
                provides_rec.value.expect("provides ports always carry a value"),
            ),
        );
        drop(st);
        self.events.write().push(BuilderEvent::Connected {
            user: user.name().to_string(),
            uses_port: uses_port.to_string(),
            provider: provider.name().to_string(),
            provides_port: provides_port.to_string(),
        });
        Ok(())
    }

    /// Disconnect a uses port.
    pub fn disconnect(&mut self, user: &ComponentId, uses_port: &str) -> CcaResult<()> {
        let user_inst = self.instance(user)?;
        let mut st = user_inst.services.state.write();
        if st.connections.remove(uses_port).is_none() {
            return Err(CcaError::NotConnected {
                component: user.name().to_string(),
                port: uses_port.to_string(),
            });
        }
        drop(st);
        self.events.write().push(BuilderEvent::Disconnected {
            user: user.name().to_string(),
            uses_port: uses_port.to_string(),
        });
        Ok(())
    }

    /// Atomically rewire a uses port to a different provider — the
    /// dynamic-switching primitive.
    pub fn reconnect(
        &mut self,
        user: &ComponentId,
        uses_port: &str,
        provider: &ComponentId,
        provides_port: &str,
    ) -> CcaResult<()> {
        self.disconnect(user, uses_port)?;
        self.connect(user, uses_port, provider, provides_port)
    }

    /// The `Services` handle of an instance (tests, drivers).
    pub fn services(&self, id: &ComponentId) -> CcaResult<Services> {
        Ok(self.instance(id)?.services.clone())
    }

    /// Component type name of an instance (diagnostics).
    pub fn component_type(&self, id: &ComponentId) -> CcaResult<&'static str> {
        Ok(self.instance(id)?.component.type_name())
    }

    /// Instance names, sorted.
    pub fn component_names(&self) -> Vec<String> {
        self.instances.keys().cloned().collect()
    }

    /// Look up an instance handle by name.
    pub fn component_id(&self, name: &str) -> Option<ComponentId> {
        self.instances.contains_key(name).then(|| ComponentId(name.to_string()))
    }

    /// The event log so far.
    pub fn events(&self) -> Vec<BuilderEvent> {
        self.events.read().clone()
    }
}

/// A thin named façade over [`Framework`] mirroring
/// `gov.cca.ports.BuilderService`.
pub struct BuilderService<'f> {
    framework: &'f mut Framework,
}

impl<'f> BuilderService<'f> {
    /// Wrap a framework.
    pub fn new(framework: &'f mut Framework) -> Self {
        BuilderService { framework }
    }

    /// `createInstance`.
    pub fn create_instance(
        &mut self,
        name: &str,
        component: Box<dyn Component>,
    ) -> CcaResult<ComponentId> {
        self.framework.instantiate(name, component)
    }

    /// `connect`.
    pub fn connect(
        &mut self,
        user: &ComponentId,
        uses_port: &str,
        provider: &ComponentId,
        provides_port: &str,
    ) -> CcaResult<()> {
        self.framework.connect(user, uses_port, provider, provides_port)
    }

    /// `disconnect`.
    pub fn disconnect(&mut self, user: &ComponentId, uses_port: &str) -> CcaResult<()> {
        self.framework.disconnect(user, uses_port)
    }

    /// `destroyInstance`.
    pub fn destroy_instance(&mut self, id: &ComponentId) -> CcaResult<()> {
        self.framework.destroy(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    trait Answer: Send + Sync {
        fn value(&self) -> i32;
    }
    struct Fixed(i32);
    impl Answer for Fixed {
        fn value(&self) -> i32 {
            self.0
        }
    }

    struct ProviderComp {
        answer: i32,
    }
    impl Component for ProviderComp {
        fn set_services(&mut self, services: &Services) -> CcaResult<()> {
            let port: Arc<dyn Answer> = Arc::new(Fixed(self.answer));
            services.add_provides_port("answer", "demo.Answer", port)
        }
    }

    struct UserComp {
        services: Option<Services>,
    }
    impl Component for UserComp {
        fn set_services(&mut self, services: &Services) -> CcaResult<()> {
            services.register_uses_port("answer", "demo.Answer")?;
            self.services = Some(services.clone());
            Ok(())
        }
    }

    fn wire() -> (Framework, ComponentId, ComponentId, ComponentId) {
        let mut fw = Framework::new();
        let p1 = fw.instantiate("p1", Box::new(ProviderComp { answer: 1 })).unwrap();
        let p2 = fw.instantiate("p2", Box::new(ProviderComp { answer: 2 })).unwrap();
        let u = fw.instantiate("user", Box::new(UserComp { services: None })).unwrap();
        (fw, p1, p2, u)
    }

    fn read_answer(fw: &Framework, u: &ComponentId) -> CcaResult<i32> {
        let services = fw.services(u)?;
        let port: Arc<dyn Answer> = services.get_port("answer")?;
        Ok(port.value())
    }

    #[test]
    fn connect_fetch_and_call() {
        let (mut fw, p1, _, u) = wire();
        fw.connect(&u, "answer", &p1, "answer").unwrap();
        assert_eq!(read_answer(&fw, &u).unwrap(), 1);
    }

    #[test]
    fn dynamic_switching_changes_the_provider_seen_at_next_get_port() {
        let (mut fw, p1, p2, u) = wire();
        fw.connect(&u, "answer", &p1, "answer").unwrap();
        assert_eq!(read_answer(&fw, &u).unwrap(), 1);
        fw.reconnect(&u, "answer", &p2, "answer").unwrap();
        assert_eq!(read_answer(&fw, &u).unwrap(), 2, "rewire must take effect");
        let events = fw.events();
        assert!(
            matches!(events.last(), Some(BuilderEvent::Connected { provider, .. }) if provider == "p2")
        );
    }

    #[test]
    fn connection_errors_are_specific() {
        let (mut fw, p1, _, u) = wire();
        // Unknown ports.
        assert!(matches!(
            fw.connect(&u, "nope", &p1, "answer"),
            Err(CcaError::NoSuchPort { kind: "uses", .. })
        ));
        assert!(matches!(
            fw.connect(&u, "answer", &p1, "nope"),
            Err(CcaError::NoSuchPort { kind: "provides", .. })
        ));
        // Double connect.
        fw.connect(&u, "answer", &p1, "answer").unwrap();
        assert!(matches!(
            fw.connect(&u, "answer", &p1, "answer"),
            Err(CcaError::AlreadyConnected { .. })
        ));
        // Disconnect twice.
        fw.disconnect(&u, "answer").unwrap();
        assert!(matches!(fw.disconnect(&u, "answer"), Err(CcaError::NotConnected { .. })));
    }

    #[test]
    fn type_mismatch_is_rejected() {
        struct OtherProvider;
        impl Component for OtherProvider {
            fn set_services(&mut self, services: &Services) -> CcaResult<()> {
                let port: Arc<dyn Answer> = Arc::new(Fixed(9));
                services.add_provides_port("answer", "demo.SomethingElse", port)
            }
        }
        let mut fw = Framework::new();
        let p = fw.instantiate("p", Box::new(OtherProvider)).unwrap();
        let u = fw.instantiate("u", Box::new(UserComp { services: None })).unwrap();
        assert!(matches!(
            fw.connect(&u, "answer", &p, "answer"),
            Err(CcaError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn destroy_severs_connections() {
        let (mut fw, p1, _, u) = wire();
        fw.connect(&u, "answer", &p1, "answer").unwrap();
        fw.destroy(&p1).unwrap();
        assert!(matches!(read_answer(&fw, &u), Err(CcaError::NotConnected { .. })));
        assert!(fw.instantiate("p1", Box::new(ProviderComp { answer: 3 })).is_ok());
    }

    #[test]
    fn duplicate_instance_names_are_rejected() {
        let mut fw = Framework::new();
        fw.instantiate("x", Box::new(ProviderComp { answer: 1 })).unwrap();
        assert!(matches!(
            fw.instantiate("x", Box::new(ProviderComp { answer: 2 })),
            Err(CcaError::Duplicate(_))
        ));
    }

    #[test]
    fn registry_validation_rejects_unknown_port_types() {
        let registry = crate::sidl::SidlRegistry::parse(
            "package demo version 1.0 { interface Answer extends gov.cca.Port { int value(); } }",
        )
        .unwrap();
        let mut fw = Framework::with_registry(registry);
        // demo.Answer is known.
        assert!(fw.instantiate("ok", Box::new(ProviderComp { answer: 1 })).is_ok());
        // A port type outside the registry is rejected.
        struct Bad;
        impl Component for Bad {
            fn set_services(&mut self, services: &Services) -> CcaResult<()> {
                services.register_uses_port("p", "demo.Missing")
            }
        }
        assert!(matches!(fw.instantiate("bad", Box::new(Bad)), Err(CcaError::UnknownSidlType(_))));
    }

    #[test]
    fn builder_service_facade_drives_the_framework() {
        let mut fw = Framework::new();
        let mut builder = BuilderService::new(&mut fw);
        let p = builder.create_instance("p", Box::new(ProviderComp { answer: 7 })).unwrap();
        let u = builder.create_instance("u", Box::new(UserComp { services: None })).unwrap();
        builder.connect(&u, "answer", &p, "answer").unwrap();
        builder.disconnect(&u, "answer").unwrap();
        builder.destroy_instance(&p).unwrap();
        assert_eq!(fw.component_names(), vec!["u".to_string()]);
        assert_eq!(fw.events().len(), 5);
    }

    #[test]
    fn cohorts_run_identically_across_ranks() {
        // SPMD pattern: each rank builds the same wiring; the answer is
        // rank-independent but the components are per-rank instances.
        let out = rcomm_universe(3);
        assert_eq!(out, vec![1, 1, 1]);

        fn rcomm_universe(n: usize) -> Vec<i32> {
            // Local duplicate of the SPMD harness to avoid a dev-dependency
            // cycle: plain threads, one framework per "rank".
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n)
                    .map(|_| {
                        scope.spawn(|| {
                            let (mut fw, p1, _, u) = wire();
                            fw.connect(&u, "answer", &p1, "answer").unwrap();
                            read_answer(&fw, &u).unwrap()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
        }
    }
}
